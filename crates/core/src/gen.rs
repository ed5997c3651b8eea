//! Generative fuzz campaign: random circuits × randomly drawn sabotage
//! matrices, with `check_certificate` as the oracle.
//!
//! [`crate::mutate`] wounds pass *semantics* deterministically; this module
//! sabotages *compilations*, and is the one campaign that does.  It has four
//! layers:
//!
//! 1. **Circuit generator** ([`generate_corpus`]): a seeded random-circuit
//!    generator parameterized over a [`GateAlphabet`] preset, register
//!    width, and depth.  Every emitted circuit is a valid `qc-ir` circuit by
//!    construction (operands are distinct, arities match, angles are drawn
//!    from a discrete π/8 lattice so the corpus is bit-reproducible from the
//!    seed alone), and the root proptest suite re-checks validity over the
//!    whole configuration space.
//! 2. **Sabotage driver** ([`draw_faults`]): per generated circuit a small
//!    fault matrix is drawn from *all* [`PipelineFault`] operator families —
//!    the deterministic PR-8 gate-level faults plus the layout corruption,
//!    the wrong-wire retarget, and the coupling-violating stray CX.
//! 3. **Campaign** ([`run_generative_campaign`]): each circuit is compiled
//!    honestly through the verified pipeline, its honest certificate is
//!    checked to be *accepted*, and each drawn fault is injected via a
//!    [`SabotagePass`], certified, and pushed through
//!    [`check_certificate`] under **every** [`BackendSelection`]; every
//!    semantic fault must be refused by both backends.  Non-semantic faults
//!    the checker refuses anyway (it compares against a replay of the
//!    pipeline, so any divergence is refused) are counted as
//!    `non_semantic_refused`: the oracle's false refusals.  A fault the
//!    unitary oracle cannot classify (say, too many condition bits) is
//!    counted as an `oracle_errors` fault, neither semantic nor not.
//! 4. **Shrinker** ([`shrink_case`]): any surviving counterexample is
//!    delta-debugged to a minimal wounding edit — greedy chunk removal over
//!    the circuit's gate list at halving granularities, then field-wise
//!    shrinking of the fault matrix toward zero, iterated to a fixed point
//!    (so re-shrinking a shrunk case is the identity).
//!
//! The `giallar fuzz --generate` CLI subcommand and the `generative`
//! section of the committed `BENCH_bug_detection.json` artifact are thin
//! wrappers over this module.

use std::f64::consts::FRAC_PI_8;
use std::time::Instant;

use qc_ir::unitary::circuits_equivalent;
use qc_ir::{Circuit, CouplingMap, DagCircuit, Gate, GateKind, QcError};
use qc_passes::inject::{PipelineFault, SabotagePass};
use qc_passes::pass::{TranspileResult, TranspilerPass};
use rayon::prelude::*;

use crate::backend::BackendSelection;
use crate::certificate::{certify_compilation, check_certificate, end_to_end_wire_map};
use crate::json::Value;
use crate::mutate::{fnv1a, XorShift};
use crate::wrapper::{giallar_pipeline_pass_names, giallar_transpile};

// ---------------------------------------------------------------------------
// Gate alphabets
// ---------------------------------------------------------------------------

/// A gate-alphabet preset the circuit generator draws from.
///
/// Mirrors the basis-gate-set sweeps of the ucc-bench exemplars: the IBM
/// rotation basis, the fault-tolerant Clifford+T set, and the full unitary
/// alphabet the `Unroller` decomposition library covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GateAlphabet {
    /// The `rz/rx/ry/h/cx` rotation basis.
    Basis,
    /// Clifford+T: `h/s/sdg/t/tdg/x/y/z/cx`.
    CliffordT,
    /// The unitary gates of the decomposition library (1q/2q/3q, rotations
    /// on a π/8 lattice) except `ecr`: adding a gate would redraw every
    /// seeded corpus, the pinned one included.
    Full,
}

impl GateAlphabet {
    /// All presets, in generator-cycling order.
    pub const ALL: [GateAlphabet; 3] =
        [GateAlphabet::Basis, GateAlphabet::CliffordT, GateAlphabet::Full];

    /// The preset's CLI / artifact name.
    pub fn name(self) -> &'static str {
        match self {
            GateAlphabet::Basis => "basis",
            GateAlphabet::CliffordT => "clifford+t",
            GateAlphabet::Full => "full",
        }
    }

    /// Parses a CLI `--alphabet` value; `None` for unknown names.  The
    /// cycling pseudo-preset `all` is handled by the caller (it is not a
    /// single alphabet).
    pub fn parse(name: &str) -> Option<GateAlphabet> {
        match name {
            "basis" | "rzrxryhcx" => Some(GateAlphabet::Basis),
            "clifford+t" | "cliffordt" | "clifford-t" => Some(GateAlphabet::CliffordT),
            "full" => Some(GateAlphabet::Full),
            _ => None,
        }
    }

    /// Draws one valid gate on `width` wires.
    fn draw_gate(self, rng: &mut XorShift, width: usize) -> Gate {
        debug_assert!(width >= 2);
        match self {
            GateAlphabet::Basis => match rng.below(5) {
                0 => Gate::new(GateKind::RZ(draw_angle(rng)), draw_wires(rng, width, 1)),
                1 => Gate::new(GateKind::RX(draw_angle(rng)), draw_wires(rng, width, 1)),
                2 => Gate::new(GateKind::RY(draw_angle(rng)), draw_wires(rng, width, 1)),
                3 => Gate::new(GateKind::H, draw_wires(rng, width, 1)),
                _ => Gate::new(GateKind::CX, draw_wires(rng, width, 2)),
            },
            GateAlphabet::CliffordT => {
                let kind = match rng.below(9) {
                    0 => GateKind::H,
                    1 => GateKind::S,
                    2 => GateKind::Sdg,
                    3 => GateKind::T,
                    4 => GateKind::Tdg,
                    5 => GateKind::X,
                    6 => GateKind::Y,
                    7 => GateKind::Z,
                    _ => GateKind::CX,
                };
                let arity = kind.arity();
                Gate::new(kind, draw_wires(rng, width, arity))
            }
            GateAlphabet::Full => {
                let three_q = if width >= 3 { 2 } else { 0 };
                let kind = match rng.below(25 + three_q) {
                    0 => GateKind::H,
                    1 => GateKind::S,
                    2 => GateKind::Sdg,
                    3 => GateKind::T,
                    4 => GateKind::Tdg,
                    5 => GateKind::X,
                    6 => GateKind::Y,
                    7 => GateKind::Z,
                    8 => GateKind::SX,
                    9 => GateKind::SXdg,
                    10 => GateKind::RX(draw_angle(rng)),
                    11 => GateKind::RY(draw_angle(rng)),
                    12 => GateKind::RZ(draw_angle(rng)),
                    13 => GateKind::P(draw_angle(rng)),
                    14 => GateKind::U1(draw_angle(rng)),
                    15 => GateKind::U2(draw_angle(rng), draw_angle(rng)),
                    16 => GateKind::U3(draw_angle(rng), draw_angle(rng), draw_angle(rng)),
                    17 => GateKind::CX,
                    18 => GateKind::CY,
                    19 => GateKind::CZ,
                    20 => GateKind::CH,
                    21 => GateKind::Swap,
                    22 => GateKind::RZZ(draw_angle(rng)),
                    23 => GateKind::CP(draw_angle(rng)),
                    24 => GateKind::CRZ(draw_angle(rng)),
                    25 => GateKind::CCX,
                    _ => GateKind::CSwap,
                };
                let arity = kind.arity();
                Gate::new(kind, draw_wires(rng, width, arity))
            }
        }
    }
}

/// Draws a rotation angle from the discrete lattice `{kπ/8 : 1 ≤ k ≤ 15}`.
/// Discrete angles keep the corpus byte-reproducible (the product `k * π/8`
/// is an exact IEEE-754 operation for these `k`).
fn draw_angle(rng: &mut XorShift) -> f64 {
    (1 + rng.below(15)) as f64 * FRAC_PI_8
}

/// Draws `count` *distinct* wires below `width` (rejection sampling off the
/// deterministic PRNG stream).
fn draw_wires(rng: &mut XorShift, width: usize, count: usize) -> Vec<usize> {
    debug_assert!(count <= width);
    let mut wires = Vec::with_capacity(count);
    while wires.len() < count {
        let wire = rng.below(width);
        if !wires.contains(&wire) {
            wires.push(wire);
        }
    }
    wires
}

// ---------------------------------------------------------------------------
// Generator configuration and corpus
// ---------------------------------------------------------------------------

/// Configuration of a generative campaign.
#[derive(Debug, Clone)]
pub struct GenConfig {
    /// Campaign seed; the corpus and every drawn fault matrix derive from
    /// it deterministically.
    pub seed: u64,
    /// Number of circuits to generate.
    pub circuits: usize,
    /// Maximum register width; per-circuit widths are drawn in
    /// `2..=max_width`.
    pub max_width: usize,
    /// Maximum depth (gate count); per-circuit depths are drawn in
    /// `1..=max_depth`.
    pub max_depth: usize,
    /// Restrict the corpus to one alphabet preset; `None` cycles through
    /// all of [`GateAlphabet::ALL`].
    pub alphabet: Option<GateAlphabet>,
}

/// Upper bound on [`GenConfig::max_depth`] (keeps the numeric oracle and
/// the pipeline bounded).
pub const MAX_GEN_DEPTH: usize = 512;

impl GenConfig {
    /// The pinned configuration behind the committed artifact and the
    /// `fuzz-generative` CI job: width up to 5 on the 6-wire line device,
    /// depth up to 16 (full-alphabet circuits unroll to ~8× their drawn
    /// depth, and 16 keeps the certify/check oracle over the whole corpus
    /// inside a release-mode budget of seconds), all three alphabets
    /// cycling.
    pub fn pinned(seed: u64, circuits: usize) -> GenConfig {
        GenConfig { seed, circuits, max_width: 5, max_depth: 16, alphabet: None }
    }

    /// The artifact name of the configured alphabet (`all` when cycling).
    pub fn alphabet_name(&self) -> &'static str {
        self.alphabet.map_or("all", GateAlphabet::name)
    }

    /// Validates the configuration; the message names the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), String> {
        if self.circuits == 0 {
            return Err("circuits must be at least 1".to_string());
        }
        if self.max_width < 2 {
            return Err(format!("width must be at least 2 (got {})", self.max_width));
        }
        if self.max_depth == 0 {
            return Err("depth must be at least 1".to_string());
        }
        if self.max_depth > MAX_GEN_DEPTH {
            return Err(format!("depth must be at most {MAX_GEN_DEPTH} (got {})", self.max_depth));
        }
        Ok(())
    }
}

/// One generated corpus entry.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// Stable case name (`gen042-clifford+t`), recorded in certificates and
    /// artifacts.
    pub name: String,
    /// The alphabet the circuit was drawn from.
    pub alphabet: GateAlphabet,
    /// The generated circuit.
    pub circuit: Circuit,
}

/// Generates one random circuit.  Every emitted gate is valid by
/// construction: arities match, operands are distinct and in range.
pub fn generate_circuit(
    rng: &mut XorShift,
    alphabet: GateAlphabet,
    width: usize,
    depth: usize,
) -> Circuit {
    let mut circuit = Circuit::with_clbits(width, 0);
    for _ in 0..depth {
        let gate = alphabet.draw_gate(rng, width);
        circuit.push(gate).expect("generated gate is valid by construction");
    }
    circuit
}

/// Generates the corpus described by `config`.  Each case derives its own
/// PRNG from `(seed, index)`, so the corpus is stable under reordering and
/// parallelism and any prefix of a larger corpus equals the smaller one.
///
/// # Errors
///
/// Returns the [`GenConfig::validate`] message for invalid configurations.
pub fn generate_corpus(config: &GenConfig) -> Result<Vec<GenCase>, String> {
    config.validate()?;
    let mut corpus = Vec::with_capacity(config.circuits);
    for index in 0..config.circuits {
        let alphabet =
            config.alphabet.unwrap_or(GateAlphabet::ALL[index % GateAlphabet::ALL.len()]);
        let mut rng = XorShift::new(config.seed ^ fnv1a(format!("gen-case-{index}").as_bytes()));
        let width = 2 + rng.below(config.max_width - 1);
        let depth = 1 + rng.below(config.max_depth);
        let circuit = generate_circuit(&mut rng, alphabet, width, depth);
        corpus.push(GenCase {
            name: format!("gen{index:03}-{}", alphabet.name()),
            alphabet,
            circuit,
        });
    }
    Ok(corpus)
}

// ---------------------------------------------------------------------------
// Sabotage-matrix drawing
// ---------------------------------------------------------------------------

/// The fault operator families the sabotage driver draws from, in artifact
/// order.
pub const FAULT_FAMILIES: [&str; 7] = [
    "drop_gate",
    "duplicate_gate",
    "swap_adjacent",
    "flip_cx",
    "corrupt_layout",
    "retarget_gate",
    "stray_cx",
];

/// The operator-family name of a fault (one of [`FAULT_FAMILIES`]).
pub fn fault_family(fault: &PipelineFault) -> &'static str {
    match fault {
        PipelineFault::DropGate { .. } => "drop_gate",
        PipelineFault::DuplicateGate { .. } => "duplicate_gate",
        PipelineFault::SwapAdjacentGates { .. } => "swap_adjacent",
        PipelineFault::FlipCxDirection { .. } => "flip_cx",
        PipelineFault::CorruptFinalLayout { .. } => "corrupt_layout",
        PipelineFault::RetargetGate { .. } => "retarget_gate",
        PipelineFault::InsertStrayCx { .. } => "stray_cx",
    }
}

/// Draws a fault matrix of 2–4 faults across all seven operator families.
/// Gate indices are drawn below 64 and wrap modulo the corrupted circuit's
/// gate count inside [`SabotagePass`]; wire draws wrap modulo
/// `device_width`.
pub fn draw_faults(rng: &mut XorShift, device_width: usize) -> Vec<PipelineFault> {
    let count = 2 + rng.below(3);
    let mut faults = Vec::with_capacity(count);
    for _ in 0..count {
        let fault = match rng.below(7) {
            0 => PipelineFault::DropGate { index: rng.below(64) },
            1 => PipelineFault::DuplicateGate { index: rng.below(64) },
            2 => PipelineFault::SwapAdjacentGates { index: rng.below(64) },
            3 => PipelineFault::FlipCxDirection { nth: rng.below(8) },
            4 => PipelineFault::CorruptFinalLayout {
                a: rng.below(device_width),
                b: rng.below(device_width),
            },
            5 => PipelineFault::RetargetGate {
                index: rng.below(64),
                offset: 1 + rng.below(device_width.saturating_sub(1).max(1)),
            },
            _ => PipelineFault::InsertStrayCx {
                a: rng.below(device_width),
                b: rng.below(device_width),
            },
        };
        faults.push(fault);
    }
    faults
}

// ---------------------------------------------------------------------------
// Campaign
// ---------------------------------------------------------------------------

/// Outcome of one generated circuit × drawn fault, pushed through the
/// certify/check oracle under every backend.
#[derive(Debug, Clone)]
pub struct GenerativeOutcome {
    /// The generated case's name.
    pub circuit: String,
    /// The case's alphabet preset name.
    pub alphabet: &'static str,
    /// Description of the drawn fault.
    pub fault: String,
    /// The fault's operator family (one of [`FAULT_FAMILIES`]).
    pub family: &'static str,
    /// Whether the fault semantically changed the compilation (numeric
    /// unitary oracle on the output, or a changed end-to-end wire map for
    /// layout corruption).  `false` when the oracle errored.
    pub semantic: bool,
    /// Why the unitary oracle could not classify the fault, if it could
    /// not; such a fault is neither semantic nor non-semantic.
    pub oracle_error: Option<String>,
    /// Per-backend refusal flags, in [`BackendSelection::ALL`] order.
    pub refusals: Vec<(&'static str, bool)>,
    /// Whether **every** backend refused the corrupted certificate.
    pub refused: bool,
    /// `semantic && refused` — the oracle caught the fault everywhere.
    pub detected: bool,
    /// Wall-clock seconds for the certify/check oracle across all
    /// backends (timing only; never folded into deterministic artifacts).
    pub seconds: f64,
    /// The first refusal message (or a pipeline error).
    pub error: Option<String>,
}

impl GenerativeOutcome {
    /// A semantic fault every backend failed to refuse (a counterexample).
    pub fn survived(&self) -> bool {
        self.semantic && !self.refused
    }
}

/// A surviving counterexample after delta-debug shrinking.
#[derive(Debug, Clone)]
pub struct ShrunkSurvivor {
    /// The originating case's name.
    pub circuit: String,
    /// The original drawn fault.
    pub fault: String,
    /// The shrunk fault.
    pub shrunk_fault: String,
    /// Gate count of the shrunk circuit.
    pub gates: usize,
    /// Canonical form of the shrunk `(circuit, fault)` pair
    /// ([`ShrinkCase::canonical_form`]).
    pub canonical: String,
}

/// The full generative-campaign report.
#[derive(Debug, Clone)]
pub struct GenerativeReport {
    /// The configuration the campaign ran with.
    pub config: GenConfig,
    /// The device spec circuits were compiled for.
    pub device: String,
    /// The compilation seed (routing/pipeline seed, distinct from the
    /// generator seed).
    pub compile_seed: u64,
    /// Circuits generated.
    pub generated: usize,
    /// Circuits the honest pipeline failed to compile (excluded from the
    /// oracle, but reported — no silent caps).
    pub skipped_uncompiled: usize,
    /// Honest certificates accepted by [`check_certificate`] (must equal
    /// `generated - skipped_uncompiled`).
    pub honest_accepted: usize,
    /// Per-fault outcomes, in corpus order.
    pub outcomes: Vec<GenerativeOutcome>,
    /// Shrunk counterexamples, one per surviving outcome (empty on a
    /// healthy verifier).
    pub shrunk: Vec<ShrunkSurvivor>,
}

impl GenerativeReport {
    /// Total faults drawn.
    pub fn drawn(&self) -> usize {
        self.outcomes.len()
    }

    /// Faults that semantically changed a compilation.
    pub fn semantic(&self) -> usize {
        self.outcomes.iter().filter(|o| o.semantic).count()
    }

    /// Semantic faults refused by every backend.
    pub fn refused(&self) -> usize {
        self.outcomes.iter().filter(|o| o.detected).count()
    }

    /// Non-semantic faults refused by every backend anyway (false
    /// refusals).
    pub fn non_semantic_refused(&self) -> usize {
        non_semantic_refused(&self.outcomes)
    }

    /// Faults the unitary oracle could not classify.
    pub fn oracle_errors(&self) -> usize {
        oracle_errors(&self.outcomes)
    }

    /// The surviving outcomes (semantic faults some backend accepted).
    pub fn survivors(&self) -> Vec<&GenerativeOutcome> {
        self.outcomes.iter().filter(|o| o.survived()).collect()
    }

    /// Fault families present in the report, in [`FAULT_FAMILIES`] order.
    pub fn families(&self) -> Vec<&'static str> {
        FAULT_FAMILIES
            .into_iter()
            .filter(|f| self.outcomes.iter().any(|o| o.family == *f))
            .collect()
    }

    /// Renders the report as a JSON value (the `generative` section of the
    /// committed `BENCH_bug_detection.json` and the standalone
    /// `giallar fuzz --generate --format json` document).  With
    /// `timings = false` the document is fully deterministic; timing
    /// members use `_seconds`-suffixed keys so the bench drift gate strips
    /// them.
    pub fn to_json(&self, timings: bool) -> Value {
        let corpus = Value::object(vec![
            ("seed", Value::String(format!("0x{:016x}", self.config.seed))),
            ("circuits", Value::Int(self.config.circuits as i64)),
            ("max_width", Value::Int(self.config.max_width as i64)),
            ("max_depth", Value::Int(self.config.max_depth as i64)),
            ("alphabet", Value::String(self.config.alphabet_name().to_string())),
            ("device", Value::String(self.device.clone())),
            ("compile_seed", Value::Int(self.compile_seed as i64)),
        ]);
        let cases = Value::object(vec![
            ("generated", Value::Int(self.generated as i64)),
            ("compiled", Value::Int((self.generated - self.skipped_uncompiled) as i64)),
            ("skipped_uncompiled", Value::Int(self.skipped_uncompiled as i64)),
            ("honest_accepted", Value::Int(self.honest_accepted as i64)),
        ]);
        let totals = Value::object(vec![
            ("drawn", Value::Int(self.drawn() as i64)),
            ("semantic", Value::Int(self.semantic() as i64)),
            ("refused", Value::Int(self.refused() as i64)),
            ("non_semantic_refused", Value::Int(self.non_semantic_refused() as i64)),
            ("oracle_errors", Value::Int(self.oracle_errors() as i64)),
            ("survivors", Value::Int(self.survivors().len() as i64)),
        ]);
        let families: Vec<Value> = self
            .families()
            .into_iter()
            .map(|family| {
                let rows: Vec<&GenerativeOutcome> =
                    self.outcomes.iter().filter(|o| o.family == family).collect();
                let semantic = rows.iter().filter(|o| o.semantic).count();
                let refused = rows.iter().filter(|o| o.detected).count();
                let mut members = vec![
                    ("family", Value::String(family.to_string())),
                    ("drawn", Value::Int(rows.len() as i64)),
                    ("semantic", Value::Int(semantic as i64)),
                    ("refused", Value::Int(refused as i64)),
                    (
                        "non_semantic_refused",
                        Value::Int(non_semantic_refused(rows.iter().copied()) as i64),
                    ),
                    ("oracle_errors", Value::Int(oracle_errors(rows.iter().copied()) as i64)),
                ];
                if timings {
                    let mut times: Vec<f64> =
                        rows.iter().filter(|o| o.detected).map(|o| o.seconds).collect();
                    times.sort_by(f64::total_cmp);
                    members.push(("refute_p50_seconds", Value::Float(percentile(&times, 50.0))));
                    members.push(("refute_p99_seconds", Value::Float(percentile(&times, 99.0))));
                }
                Value::object(members)
            })
            .collect();
        let survivors: Vec<Value> = self
            .shrunk
            .iter()
            .map(|s| {
                Value::object(vec![
                    ("circuit", Value::String(s.circuit.clone())),
                    ("fault", Value::String(s.fault.clone())),
                    ("shrunk_fault", Value::String(s.shrunk_fault.clone())),
                    ("gates", Value::Int(s.gates as i64)),
                    ("canonical", Value::String(s.canonical.clone())),
                ])
            })
            .collect();
        let backends: Vec<Value> =
            BackendSelection::ALL.into_iter().map(|s| Value::String(s.id().to_string())).collect();
        let mut members = vec![
            ("schema", Value::String("giallar-genfuzz/v1".to_string())),
            ("corpus", corpus),
            ("cases", cases),
            ("faults", totals),
            ("backends", Value::Array(backends)),
            ("families", Value::Array(families)),
            ("survivors", Value::Array(survivors)),
        ];
        if timings {
            let total: f64 = self.outcomes.iter().map(|o| o.seconds).sum();
            members.push(("oracle_seconds", Value::Float(total)));
        }
        Value::object(members)
    }

    /// Renders a human-readable summary (the `giallar fuzz --generate`
    /// text output).
    pub fn text(&self, timings: bool) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "generative campaign: seed 0x{:016x}, {} circuits (alphabet {}, width ≤ {}, \
             depth ≤ {}) on {} seed {}\n",
            self.config.seed,
            self.config.circuits,
            self.config.alphabet_name(),
            self.config.max_width,
            self.config.max_depth,
            self.device,
            self.compile_seed,
        ));
        out.push_str(&format!(
            "  compiled {}/{} circuits ({} honest certificates accepted",
            self.generated - self.skipped_uncompiled,
            self.generated,
            self.honest_accepted,
        ));
        if self.skipped_uncompiled > 0 {
            out.push_str(&format!("; {} skipped uncompiled", self.skipped_uncompiled));
        }
        out.push_str(")\n");
        out.push_str(&format!(
            "  faults: {} drawn, {} semantic, {} refused by all {} backends, {} survivors; \
             {} of {} non-semantic refused anyway; {} oracle errors\n",
            self.drawn(),
            self.semantic(),
            self.refused(),
            BackendSelection::ALL.len(),
            self.survivors().len(),
            self.non_semantic_refused(),
            self.drawn() - self.semantic() - self.oracle_errors(),
            self.oracle_errors(),
        ));
        for family in self.families() {
            let rows: Vec<&GenerativeOutcome> =
                self.outcomes.iter().filter(|o| o.family == family).collect();
            let semantic = rows.iter().filter(|o| o.semantic).count();
            let refused = rows.iter().filter(|o| o.detected).count();
            let mut line = format!(
                "    {family:<16} drawn {:>3}  semantic {:>3}  refused {:>3}  \
                 non-semantic refused {:>3}  oracle errors {:>3}",
                rows.len(),
                semantic,
                refused,
                non_semantic_refused(rows.iter().copied()),
                oracle_errors(rows.iter().copied()),
            );
            if timings {
                let mut times: Vec<f64> =
                    rows.iter().filter(|o| o.detected).map(|o| o.seconds).collect();
                times.sort_by(f64::total_cmp);
                line.push_str(&format!(
                    "  p50 {:.3}ms p99 {:.3}ms",
                    percentile(&times, 50.0) * 1e3,
                    percentile(&times, 99.0) * 1e3
                ));
            }
            line.push('\n');
            out.push_str(&line);
        }
        for survivor in &self.shrunk {
            out.push_str(&format!(
                "  SURVIVOR {}: {} (shrunk to {} gates, {})\n",
                survivor.circuit, survivor.fault, survivor.gates, survivor.shrunk_fault
            ));
        }
        out
    }
}

/// Outcomes whose fault the oracle classified as not semantic but every
/// backend refused.
fn non_semantic_refused<'a>(outcomes: impl IntoIterator<Item = &'a GenerativeOutcome>) -> usize {
    outcomes.into_iter().filter(|o| !o.semantic && o.oracle_error.is_none() && o.refused).count()
}

/// Outcomes whose fault the oracle could not classify.
fn oracle_errors<'a>(outcomes: impl IntoIterator<Item = &'a GenerativeOutcome>) -> usize {
    outcomes.into_iter().filter(|o| o.oracle_error.is_some()).count()
}

/// Nearest-rank percentile of an already-sorted sample (0.0 when empty):
/// the smallest element with at least `p` percent of the sample at or
/// below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Per-case result folded by the campaign driver.
struct CaseResult {
    compiled: bool,
    honest_accepted: bool,
    outcomes: Vec<GenerativeOutcome>,
    shrunk: Vec<ShrunkSurvivor>,
}

/// Runs the generative campaign described by `config` against `device`.
///
/// Per corpus case: compile honestly, require the honest certificate to be
/// accepted, then inject each drawn fault with a [`SabotagePass`], certify
/// the corrupted compilation, and push it through [`check_certificate`]
/// under every backend.  Cases run in parallel; the report order is the
/// deterministic corpus order.  Survivors are shrunk before the report is
/// returned, with the live oracle as the shrinking predicate.
///
/// # Errors
///
/// Returns a message naming the offending parameter for invalid
/// configurations, unknown device specs, or a generator width exceeding
/// the device width.
pub fn run_generative_campaign(
    config: &GenConfig,
    device: &str,
    compile_seed: u64,
) -> Result<GenerativeReport, String> {
    config.validate()?;
    let coupling =
        CouplingMap::from_spec(device).map_err(|e| format!("unknown device `{device}`: {e}"))?;
    if config.max_width > coupling.num_qubits() {
        return Err(format!(
            "width must be at most the device width {} (got {})",
            coupling.num_qubits(),
            config.max_width
        ));
    }
    let corpus = generate_corpus(config)?;
    let pipeline: Vec<String> = giallar_pipeline_pass_names(&coupling, compile_seed)
        .into_iter()
        .map(str::to_string)
        .collect();

    let indexed: Vec<(usize, &GenCase)> = corpus.iter().enumerate().collect();
    let results: Vec<CaseResult> = indexed
        .par_iter()
        .map(|(index, case)| {
            run_case(*index, case, config, &coupling, device, compile_seed, &pipeline)
        })
        .collect();

    let mut report = GenerativeReport {
        config: config.clone(),
        device: device.to_string(),
        compile_seed,
        generated: corpus.len(),
        skipped_uncompiled: 0,
        honest_accepted: 0,
        outcomes: Vec::new(),
        shrunk: Vec::new(),
    };
    for result in results {
        if !result.compiled {
            report.skipped_uncompiled += 1;
            continue;
        }
        if result.honest_accepted {
            report.honest_accepted += 1;
        }
        report.outcomes.extend(result.outcomes);
        report.shrunk.extend(result.shrunk);
    }
    Ok(report)
}

/// Runs one corpus case: honest compile + honest-certificate check, then
/// the drawn fault matrix through the oracle (shrinking any survivor).
fn run_case(
    index: usize,
    case: &GenCase,
    config: &GenConfig,
    coupling: &CouplingMap,
    device: &str,
    compile_seed: u64,
    pipeline: &[String],
) -> CaseResult {
    let mut rng = XorShift::new(config.seed ^ fnv1a(format!("gen-faults-{index}").as_bytes()));
    let Ok(honest) = giallar_transpile(&case.circuit, coupling, compile_seed) else {
        return CaseResult {
            compiled: false,
            honest_accepted: false,
            outcomes: Vec::new(),
            shrunk: Vec::new(),
        };
    };
    let honest_cert = certify_compilation(
        &case.name,
        device,
        compile_seed,
        &case.circuit,
        &honest,
        pipeline,
        BackendSelection::Default,
    );
    let honest_accepted = check_certificate(&honest_cert).is_ok();
    let faults = draw_faults(&mut rng, coupling.num_qubits());
    let mut outcomes = Vec::with_capacity(faults.len());
    let mut shrunk = Vec::new();
    for fault in faults {
        let outcome = oracle_outcome(
            &case.name,
            case.alphabet,
            &case.circuit,
            &honest,
            &fault,
            device,
            compile_seed,
            pipeline,
        );
        if outcome.survived() {
            // A candidate the honest pipeline cannot compile does not fail.
            let predicate = |candidate: &ShrinkCase| {
                giallar_transpile(&candidate.circuit, coupling, compile_seed).is_ok_and(|honest| {
                    oracle_outcome(
                        &case.name,
                        case.alphabet,
                        &candidate.circuit,
                        &honest,
                        &candidate.fault,
                        device,
                        compile_seed,
                        pipeline,
                    )
                    .survived()
                })
            };
            let seed_case = ShrinkCase { circuit: case.circuit.clone(), fault: fault.clone() };
            let minimal = shrink_case(&seed_case, &predicate);
            shrunk.push(ShrunkSurvivor {
                circuit: case.name.clone(),
                fault: fault.describe(),
                shrunk_fault: minimal.fault.describe(),
                gates: minimal.circuit.gates().len(),
                canonical: minimal.canonical_form(),
            });
        }
        outcomes.push(outcome);
    }
    CaseResult { compiled: true, honest_accepted, outcomes, shrunk }
}

/// Applies a [`SabotagePass`] to a copy of an honest compilation: the
/// result of the verified pipeline with the sabotage appended, without
/// running the pipeline again.
fn sabotage(honest: &TranspileResult, fault: &PipelineFault) -> Result<TranspileResult, QcError> {
    let mut dag = DagCircuit::from_circuit(&honest.circuit);
    let mut properties = honest.properties.clone();
    SabotagePass::new(fault.clone()).run(&mut dag, &mut properties)?;
    Ok(TranspileResult { circuit: dag.into_circuit()?, properties })
}

/// Pushes one `(circuit, fault)` pair through the certify/check oracle
/// under every backend; `honest` is the circuit's honest compilation.
#[allow(clippy::too_many_arguments)]
fn oracle_outcome(
    name: &str,
    alphabet: GateAlphabet,
    input: &Circuit,
    honest: &TranspileResult,
    fault: &PipelineFault,
    device: &str,
    compile_seed: u64,
    pipeline: &[String],
) -> GenerativeOutcome {
    let start = Instant::now();
    let base = GenerativeOutcome {
        circuit: name.to_string(),
        alphabet: alphabet.name(),
        fault: fault.describe(),
        family: fault_family(fault),
        semantic: false,
        oracle_error: None,
        refusals: Vec::new(),
        refused: false,
        detected: false,
        seconds: 0.0,
        error: None,
    };
    let corrupted = match sabotage(honest, fault) {
        Ok(result) => result,
        Err(error) => {
            return GenerativeOutcome {
                error: Some(format!("sabotaged pipeline failed: {error}")),
                seconds: start.elapsed().as_secs_f64(),
                ..base
            };
        }
    };
    let width = corrupted.circuit.num_qubits().max(input.num_qubits());
    let (semantic, oracle_error) = match fault {
        PipelineFault::CorruptFinalLayout { .. } => {
            (end_to_end_wire_map(&corrupted, width) != end_to_end_wire_map(honest, width), None)
        }
        _ => match circuits_equivalent(&corrupted.circuit, &honest.circuit) {
            Ok(equivalent) => (!equivalent, None),
            Err(error) => (false, Some(error.to_string())),
        },
    };
    let mut refusals = Vec::with_capacity(BackendSelection::ALL.len());
    let mut error = None;
    for selection in BackendSelection::ALL {
        let certificate =
            certify_compilation(name, device, compile_seed, input, &corrupted, pipeline, selection);
        let check = check_certificate(&certificate);
        if error.is_none() {
            error = check.as_ref().err().cloned();
        }
        refusals.push((selection.id(), check.is_err()));
    }
    let refused = refusals.iter().all(|(_, r)| *r);
    GenerativeOutcome {
        semantic,
        oracle_error,
        refused,
        detected: semantic && refused,
        refusals,
        seconds: start.elapsed().as_secs_f64(),
        error,
        ..base
    }
}

// ---------------------------------------------------------------------------
// Shrinker
// ---------------------------------------------------------------------------

/// A shrinkable counterexample: a generated input circuit plus the drawn
/// fault that survived the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct ShrinkCase {
    /// The input circuit.
    pub circuit: Circuit,
    /// The injected fault.
    pub fault: PipelineFault,
}

impl ShrinkCase {
    /// A canonical textual form of the pair, stable across releases (gate
    /// angles render as IEEE-754 bit patterns), used by the byte-stability
    /// proptests and the survivor artifact rows.
    pub fn canonical_form(&self) -> String {
        let gates: Vec<String> = self.circuit.gates().iter().map(Gate::canonical_form).collect();
        format!(
            "width={} gates=[{}] fault={}",
            self.circuit.num_qubits(),
            gates.join("; "),
            self.fault.describe()
        )
    }
}

/// Rebuilds a circuit with the same register shape but a different gate
/// list; `None` when a gate no longer validates.
fn rebuild(template: &Circuit, gates: &[Gate]) -> Option<Circuit> {
    let mut circuit = Circuit::with_clbits(template.num_qubits(), template.num_clbits());
    for gate in gates {
        circuit.push(gate.clone()).ok()?;
    }
    Some(circuit)
}

/// Delta-debugs `case` to a minimal still-failing edit.
///
/// Alternates two deterministic reduction passes to a fixed point:
///
/// * **Gate ddmin** — remove contiguous gate chunks at halving
///   granularities (half, quarter, …, single gates), greedily accepting
///   any removal that keeps `still_fails` true;
/// * **Fault shrinking** — replace each numeric field of the fault with
///   strictly smaller candidates (`0`, half, predecessor), accepting the
///   first that keeps `still_fails` true.
///
/// Every accepted step strictly decreases `(gate count, fault-field sum)`,
/// so the loop terminates; the result is a fixed point, so re-shrinking a
/// shrunk case is the identity.  If `case` itself does not satisfy
/// `still_fails`, it is returned unchanged.
pub fn shrink_case(case: &ShrinkCase, still_fails: &dyn Fn(&ShrinkCase) -> bool) -> ShrinkCase {
    if !still_fails(case) {
        return case.clone();
    }
    let mut current = case.clone();
    loop {
        let mut changed = false;
        if shrink_gates(&mut current, still_fails) {
            changed = true;
        }
        if shrink_fault(&mut current, still_fails) {
            changed = true;
        }
        if !changed {
            break;
        }
    }
    current
}

/// One full gate-ddmin sweep; returns whether anything was removed.
fn shrink_gates(current: &mut ShrinkCase, still_fails: &dyn Fn(&ShrinkCase) -> bool) -> bool {
    let mut any = false;
    let mut chunk = (current.circuit.gates().len() / 2).max(1);
    loop {
        'rescan: loop {
            let gates = current.circuit.gates().to_vec();
            if gates.is_empty() {
                break;
            }
            let mut start = 0;
            while start < gates.len() {
                let end = (start + chunk).min(gates.len());
                let mut candidate_gates = gates.clone();
                candidate_gates.drain(start..end);
                if let Some(circuit) = rebuild(&current.circuit, &candidate_gates) {
                    let candidate = ShrinkCase { circuit, fault: current.fault.clone() };
                    if still_fails(&candidate) {
                        *current = candidate;
                        any = true;
                        continue 'rescan;
                    }
                }
                start += chunk;
            }
            break;
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    any
}

/// Strictly smaller same-family variants of a fault (field-wise toward 0).
fn fault_shrink_candidates(fault: &PipelineFault) -> Vec<PipelineFault> {
    fn smaller(v: usize) -> Vec<usize> {
        let mut out = Vec::new();
        for candidate in [0, v / 2, v.saturating_sub(1)] {
            if candidate < v && !out.contains(&candidate) {
                out.push(candidate);
            }
        }
        out
    }
    let mut candidates = Vec::new();
    match *fault {
        PipelineFault::DropGate { index } => {
            for i in smaller(index) {
                candidates.push(PipelineFault::DropGate { index: i });
            }
        }
        PipelineFault::DuplicateGate { index } => {
            for i in smaller(index) {
                candidates.push(PipelineFault::DuplicateGate { index: i });
            }
        }
        PipelineFault::SwapAdjacentGates { index } => {
            for i in smaller(index) {
                candidates.push(PipelineFault::SwapAdjacentGates { index: i });
            }
        }
        PipelineFault::FlipCxDirection { nth } => {
            for i in smaller(nth) {
                candidates.push(PipelineFault::FlipCxDirection { nth: i });
            }
        }
        PipelineFault::CorruptFinalLayout { a, b } => {
            for x in smaller(a) {
                candidates.push(PipelineFault::CorruptFinalLayout { a: x, b });
            }
            for y in smaller(b) {
                candidates.push(PipelineFault::CorruptFinalLayout { a, b: y });
            }
        }
        PipelineFault::RetargetGate { index, offset } => {
            for i in smaller(index) {
                candidates.push(PipelineFault::RetargetGate { index: i, offset });
            }
            for o in smaller(offset) {
                candidates.push(PipelineFault::RetargetGate { index, offset: o });
            }
        }
        PipelineFault::InsertStrayCx { a, b } => {
            for x in smaller(a) {
                candidates.push(PipelineFault::InsertStrayCx { a: x, b });
            }
            for y in smaller(b) {
                candidates.push(PipelineFault::InsertStrayCx { a, b: y });
            }
        }
    }
    candidates
}

/// Field-wise fault shrinking; returns whether any step was accepted.
fn shrink_fault(current: &mut ShrinkCase, still_fails: &dyn Fn(&ShrinkCase) -> bool) -> bool {
    let mut any = false;
    loop {
        let mut stepped = false;
        for fault in fault_shrink_candidates(&current.fault) {
            let candidate = ShrinkCase { circuit: current.circuit.clone(), fault };
            if still_fails(&candidate) {
                *current = candidate;
                any = true;
                stepped = true;
                break;
            }
        }
        if !stepped {
            break;
        }
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_deterministic_and_valid() {
        let config = GenConfig::pinned(42, 12);
        let a = generate_corpus(&config).unwrap();
        let b = generate_corpus(&config).unwrap();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.circuit.gates(), y.circuit.gates());
            assert!(x.circuit.num_qubits() >= 2 && x.circuit.num_qubits() <= 5);
            assert!(!x.circuit.gates().is_empty() && x.circuit.gates().len() <= 16);
            for gate in x.circuit.gates() {
                gate.validate().unwrap();
            }
        }
    }

    #[test]
    fn corpus_prefix_is_stable() {
        let small = generate_corpus(&GenConfig::pinned(7, 5)).unwrap();
        let large = generate_corpus(&GenConfig::pinned(7, 9)).unwrap();
        for (a, b) in small.iter().zip(&large) {
            assert_eq!(a.circuit.gates(), b.circuit.gates());
        }
    }

    #[test]
    fn alphabet_restriction_holds() {
        let config = GenConfig {
            seed: 3,
            circuits: 6,
            max_width: 4,
            max_depth: 10,
            alphabet: Some(GateAlphabet::Basis),
        };
        for case in generate_corpus(&config).unwrap() {
            for gate in case.circuit.gates() {
                assert!(
                    matches!(
                        gate.kind,
                        GateKind::RZ(_)
                            | GateKind::RX(_)
                            | GateKind::RY(_)
                            | GateKind::H
                            | GateKind::CX
                    ),
                    "non-basis gate {:?} in basis corpus",
                    gate.kind
                );
            }
        }
    }

    #[test]
    fn invalid_configs_name_the_parameter() {
        let mut config = GenConfig::pinned(1, 4);
        config.max_width = 0;
        assert!(config.validate().unwrap_err().contains("width"));
        config = GenConfig::pinned(1, 4);
        config.max_depth = 0;
        assert!(config.validate().unwrap_err().contains("depth"));
        config = GenConfig::pinned(1, 0);
        assert!(config.validate().unwrap_err().contains("circuits"));
    }

    #[test]
    fn width_above_device_is_rejected() {
        let mut config = GenConfig::pinned(1, 1);
        config.max_width = 9;
        let err = run_generative_campaign(&config, "line:6", 11).unwrap_err();
        assert!(err.contains("width"), "{err}");
    }

    #[test]
    fn shrinker_reaches_fixed_point_on_synthetic_predicate() {
        // Failure iff the circuit still contains an H on wire 0 and the
        // fault is a DropGate (any index).
        let mut rng = XorShift::new(99);
        let circuit = generate_circuit(&mut rng, GateAlphabet::Basis, 3, 20);
        let mut with_h = circuit.gates().to_vec();
        with_h.push(Gate::new(GateKind::H, vec![0]));
        let circuit = rebuild(&circuit, &with_h).unwrap();
        let case = ShrinkCase { circuit, fault: PipelineFault::DropGate { index: 17 } };
        let pred = |c: &ShrinkCase| {
            matches!(c.fault, PipelineFault::DropGate { .. })
                && c.circuit.gates().iter().any(|g| g.kind == GateKind::H && g.qubits == vec![0])
        };
        let shrunk = shrink_case(&case, &pred);
        assert_eq!(shrunk.circuit.gates().len(), 1);
        assert_eq!(shrunk.fault, PipelineFault::DropGate { index: 0 });
        assert!(pred(&shrunk));
        // Fixed point: re-shrinking is the identity.
        let again = shrink_case(&shrunk, &pred);
        assert_eq!(again.canonical_form(), shrunk.canonical_form());
    }

    #[test]
    fn tiny_campaign_refuses_every_semantic_fault() {
        let config = GenConfig::pinned(0x5eed, 6);
        let report = run_generative_campaign(&config, "line:6", 11).unwrap();
        assert_eq!(report.generated, 6);
        assert_eq!(report.skipped_uncompiled, 0);
        assert_eq!(report.honest_accepted, 6);
        assert!(report.semantic() > 0, "corpus drew no semantic faults");
        assert_eq!(report.refused(), report.semantic());
        assert!(report.survivors().is_empty());
        assert!(report.shrunk.is_empty());
    }

    #[test]
    fn an_oracle_error_is_counted_and_not_classified() {
        // Conditions on 11 distinct classical bits are beyond the unitary
        // oracle, which enumerates at most 10.
        let mut circuit = Circuit::with_clbits(2, 11);
        for bit in 0..11 {
            let gate = Gate::new(GateKind::X, vec![bit % 2]).with_classical_condition(bit, true);
            circuit.push(gate).unwrap();
        }
        let coupling = CouplingMap::from_spec("line:6").unwrap();
        let pipeline: Vec<String> =
            giallar_pipeline_pass_names(&coupling, 11).into_iter().map(str::to_string).collect();
        let fault = PipelineFault::DropGate { index: 0 };
        let honest = giallar_transpile(&circuit, &coupling, 11).unwrap();
        let outcome = oracle_outcome(
            "conditions",
            GateAlphabet::CliffordT,
            &circuit,
            &honest,
            &fault,
            "line:6",
            11,
            &pipeline,
        );
        let error = outcome.oracle_error.clone().expect("the oracle must error");
        assert!(error.contains("too many condition bits"), "{error}");
        assert!(!outcome.semantic);
        let report = GenerativeReport {
            config: GenConfig::pinned(0, 1),
            device: "line:6".to_string(),
            compile_seed: 11,
            generated: 1,
            skipped_uncompiled: 0,
            honest_accepted: 1,
            outcomes: vec![outcome],
            shrunk: Vec::new(),
        };
        assert_eq!(
            (report.oracle_errors(), report.semantic(), report.non_semantic_refused()),
            (1, 0, 0)
        );
        let doc = report.to_json(false);
        let faults = doc.get("faults").unwrap();
        assert_eq!(faults.get("oracle_errors").and_then(Value::as_int), Some(1));
        let Some(Value::Array(families)) = doc.get("families") else { panic!("families") };
        assert_eq!(families[0].get("oracle_errors").and_then(Value::as_int), Some(1));
        let text = report.text(false);
        assert!(text.contains("0 of 0 non-semantic refused anyway; 1 oracle errors"), "{text}");
        assert!(text.contains("oracle errors   1"), "{text}");
    }

    #[test]
    fn campaign_json_is_byte_stable() {
        let config = GenConfig::pinned(0xfeed, 4);
        let a = run_generative_campaign(&config, "line:6", 11).unwrap();
        let b = run_generative_campaign(&config, "line:6", 11).unwrap();
        assert_eq!(a.to_json(false).to_pretty(), b.to_json(false).to_pretty());
    }
}
