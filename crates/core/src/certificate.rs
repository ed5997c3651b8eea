//! Translation-validation certificates for individual compilations.
//!
//! Giallar verifies passes once, ahead of time; this module adds the
//! complementary per-*result* guarantee in the style of Burgholzer et al.
//! (arXiv:2009.02376) and QuBEC (arXiv:2309.10728): every compilation can
//! emit a machine-checkable [`EquivalenceCertificate`] stating that the
//! output circuit is what the verified pipeline produces for the input
//! circuit, related by the tracked routing permutation.  The certificate
//! embeds everything an independent checker needs — both circuits, the
//! device spec, the pipeline pass list, the rewrite-rule library
//! fingerprint, the discharging backend id, the end-to-end wire map, and
//! per-wire [`WireEvidence`] — so [`check_certificate`] can re-establish
//! the claim from scratch and refuse any tampering with fingerprints, the
//! wire map, or the evidence.
//!
//! # How the claim is established
//!
//! The rewrite-rule library discharges each pass's *local* obligations; a
//! whole pipeline (routing, unrolling, 1q-merging) composes those local
//! shapes into a global transformation no single rule captures, so the
//! direct input ≡ output goal is outside the library's fragment.  The
//! certificate instead composes the paper's guarantee from three
//! machine-checkable parts:
//!
//! 1. **Verified schedule** — the pass list is exactly the standard
//!    pipeline for the device and seed, and every scheduled pass verifies
//!    under the certificate's backend selection
//!    ([`verify_pipeline_passes`], which verifies each scheduled pass once
//!    per process); each verified pass preserves circuit semantics up to
//!    its tracked layout.
//! 2. **Deterministic replay** — the pipeline is a deterministic function
//!    of `(input, device, seed)`; [`check_certificate`] replays it on the
//!    embedded input and requires the replay to reproduce the
//!    certificate's end-to-end wire map.
//! 3. **Output identity evidence** — the embedded output is compared
//!    wire-by-wire against the replayed output through the existing
//!    [`BackendRegistry`], producing the [`WireEvidence`] the certificate
//!    embeds.  Honest certificates compare hash-consed *identical* terms
//!    (an O(1) check per wire); a doctored output forces the rewriter and
//!    the recorded fingerprints diverge.
//!
//! The certificate is the oracle the ROADMAP's bug-finding campaign builds
//! on: a pipeline scheduling a pass whose verification fails yields a
//! certificate whose verdict records the failure — and which
//! [`check_certificate`] refuses.
//!
//! # Lifecycle
//!
//! 1. **Emission** — `giallar compile --certify <path>` (or the daemon's
//!    `certify` op) runs the pipeline, verifies the scheduled passes,
//!    composes the initial and final layouts into one logical→physical
//!    wire map, extracts the output evidence, and writes the certificate
//!    as pretty JSON.  CLI- and daemon-emitted certificates for the same
//!    input are byte-identical (timing never enters the certificate body).
//! 2. **Independent checking** — `giallar check-cert <path>` re-reads the
//!    file with no other state, recomputes the circuit fingerprints,
//!    matches the rule library and backend routing of the checking binary,
//!    verifies each scheduled pass once per process, replays the pipeline,
//!    and compares the wire map, verdict, and per-wire evidence.
//! 3. **Caching** — the daemon keys certificate verdicts in its
//!    [`crate::cache::VerdictCache`] exactly like proof obligations
//!    ([`EquivalenceCertificate::cache_key`] reuses
//!    [`obligation_fingerprint`]), so repeated certifications of the same
//!    compilation hit the resident cache.

use std::collections::{HashMap, HashSet};
use std::sync::{Mutex, OnceLock, PoisonError};

use qc_ir::{Circuit, ConditionKind, CouplingMap, Layout};
use qc_passes::pass::TranspileResult;
use qc_symbolic::{SymCircuit, SymElement, WireEvidence};
use smtlite::{Fingerprint, FingerprintBuilder};

use crate::backend::{BackendRegistry, BackendSelection, GoalClass};
use crate::cache::{obligation_fingerprint, CachedVerdict, VerdictCache};
use crate::json::Value;
use crate::obligation::{Goal, ProofObligation};
use crate::registry::{verified_passes, VerifiedPass};
use crate::serialize::{sym_circuit_from_json, sym_circuit_to_json};
use crate::verifier::{verify_passes_cached_with, PassReport};
use crate::wrapper::{baseline_transpile, giallar_pipeline_pass_names};

/// The certificate format version carried by every certificate document.
pub const CERT_SCHEMA: &str = "giallar-cert/v1";

/// A machine-checkable statement that one compilation preserved the
/// semantics of its input circuit.
///
/// All fields are deterministic functions of `(input, pipeline, device,
/// seed, backend selection)` — no timestamps, hostnames, or timings — so
/// two independent emissions of the same compilation produce byte-identical
/// documents.
#[derive(Debug, Clone, PartialEq)]
pub struct EquivalenceCertificate {
    /// The compiled circuit's name (e.g. a QASMBench entry).
    pub circuit: String,
    /// Device spec the circuit was compiled for (`falcon27`, `line:<n>`,
    /// `grid:<r>x<c>`).
    pub device: String,
    /// Routing seed the pipeline ran with.
    pub seed: u64,
    /// Names of the passes the pipeline ran, in schedule order.
    pub pipeline: Vec<String>,
    /// The solver register width (the output circuit's qubit count — the
    /// device width after ancilla allocation).
    pub register_width: usize,
    /// The rewrite-rule library the evidence was produced under.
    pub rule_library: Fingerprint,
    /// The backend selection the goal was routed with.
    pub selection: BackendSelection,
    /// The id of the backend that actually discharged the goal
    /// (`selection.backend_id_for(CircuitEquivalence)` at emission time).
    pub backend: String,
    /// The input circuit, embedded so the checker needs no other state.
    pub input: SymCircuit,
    /// The output circuit produced by the pipeline.
    pub output: SymCircuit,
    /// Fingerprint of the input circuit's canonical form.
    pub input_fingerprint: Fingerprint,
    /// Fingerprint of the output circuit's canonical form.
    pub output_fingerprint: Fingerprint,
    /// The end-to-end logical→physical wire map (initial layout composed
    /// with the routing's final layout), one entry per register wire.
    pub wire_map: Vec<usize>,
    /// Per-wire evidence of the emitted-output ≡ replayed-output
    /// comparison, covering the full register (targets are the identity —
    /// the routing permutation lives in `wire_map`).
    pub evidence: Vec<WireEvidence>,
    /// The overall verdict: the evidence discharge, downgraded to refuted
    /// when a scheduled pass fails verification.
    pub verdict: CachedVerdict,
}

/// Fingerprints a symbolic circuit's canonical form (domain-separated from
/// obligation fingerprints).
pub fn circuit_fingerprint(circuit: &SymCircuit) -> Fingerprint {
    let mut builder = FingerprintBuilder::new();
    builder.write_str("giallar-circuit");
    builder.write_rendered(|out| circuit.write_canonical(out));
    builder.finish()
}

/// Composes the pipeline's initial layout with the routing's final layout
/// into one logical→physical wire map over `width` register wires.  A
/// missing layout contributes the identity; a layout narrower than the
/// register maps the wires beyond it identically.
pub fn end_to_end_wire_map(result: &TranspileResult, width: usize) -> Vec<usize> {
    fn l2p(layout: Option<&Layout>, wire: usize) -> usize {
        match layout {
            Some(layout) if wire < layout.len() => layout.logical_to_physical(wire),
            _ => wire,
        }
    }
    (0..width)
        .map(|logical| {
            let placed = l2p(result.properties.layout.as_ref(), logical);
            l2p(result.properties.final_layout.as_ref(), placed)
        })
        .collect()
}

/// The reports [`verify_pipeline_passes`] has computed in this process, by
/// (pass name, selection).
static SCHEDULE_REPORTS: OnceLock<Mutex<HashMap<(String, BackendSelection), PassReport>>> =
    OnceLock::new();

/// Verifies every pass a pipeline schedule names under `selection`, in
/// schedule order, returning each pass's report — or the first failure
/// rendered as an explanation.  This is the one schedule check behind
/// [`certify_compilation`], [`check_certificate`] and `giallar compile
/// --verified`.
///
/// Each pass is verified once per process: a report depends only on the
/// pass, the selection and the rule library, and the registry and the
/// library are constants of the binary, so reports are memoized by (pass
/// name, selection).  The scheduled passes that miss the memo are verified
/// together, in one run over an empty store.  Unknown names are never
/// memoized.  A separate checking process trusts nothing from the emitting
/// one.
///
/// # Errors
///
/// Names the first pass that is not in the verified registry or that fails
/// verification.
pub fn verify_pipeline_passes(
    pipeline: &[String],
    selection: BackendSelection,
) -> Result<Vec<PassReport>, String> {
    let reports = SCHEDULE_REPORTS.get_or_init(Default::default);
    // Every update is a single insert, so a poisoned map is still valid.
    let lock = || reports.lock().unwrap_or_else(PoisonError::into_inner);
    let missing: HashSet<&str> = {
        let memo = lock();
        pipeline
            .iter()
            .filter(|name| !memo.contains_key(&((*name).clone(), selection)))
            .map(String::as_str)
            .collect()
    };
    if !missing.is_empty() {
        // Verify without the lock: the daemon certifies concurrently, and a
        // racing duplicate differs only in its timing.
        let passes: Vec<VerifiedPass> =
            verified_passes().into_iter().filter(|p| missing.contains(p.name)).collect();
        let fresh = verify_passes_cached_with(&passes, &mut VerdictCache::new(), selection);
        let mut memo = lock();
        for report in fresh {
            memo.entry((report.name.clone(), selection)).or_insert(report);
        }
    }
    let memo = lock();
    pipeline
        .iter()
        .map(|name| {
            let Some(report) = memo.get(&(name.clone(), selection)) else {
                return Err(format!("pipeline pass `{name}` is not in the verified registry"));
            };
            if !report.verified {
                return Err(format!(
                    "pipeline pass `{name}` fails verification under selection `{selection}`: {}",
                    report.failure.as_deref().unwrap_or("no failure description")
                ));
            }
            Ok(report.clone())
        })
        .collect()
}

/// Reconstructs the concrete circuit a fully concrete [`SymCircuit`]
/// embeds.  Opaque segments stand for *unknown* gates, so a certificate
/// containing one cannot be replayed and is refused.
fn concrete_circuit(sym: &SymCircuit) -> Result<Circuit, String> {
    let mut num_clbits = 0;
    for element in sym.elements() {
        match element {
            SymElement::Gate(gate) => {
                for &c in &gate.clbits {
                    num_clbits = num_clbits.max(c + 1);
                }
                if let Some(cond) = &gate.condition {
                    if let ConditionKind::Classical { bit, .. } = cond.kind {
                        num_clbits = num_clbits.max(bit + 1);
                    }
                }
            }
            SymElement::Segment { name, .. } => {
                return Err(format!(
                    "certificate input contains opaque segment `{name}`; only fully \
                     concrete circuits can be replayed"
                ));
            }
        }
    }
    let mut circuit = Circuit::with_clbits(sym.num_qubits(), num_clbits);
    for element in sym.elements() {
        if let SymElement::Gate(gate) = element {
            circuit
                .push(gate.clone())
                .map_err(|error| format!("certificate input gate: {error}"))?;
        }
    }
    Ok(circuit)
}

/// Certifies one compilation: verifies every scheduled pass under
/// `selection`, composes the end-to-end wire map, and extracts the
/// per-wire output evidence through a **fresh** [`BackendRegistry`]
/// prewarmed to exactly the register width — so the certificate is a
/// deterministic function of `(input, pipeline, device, seed, selection)`.
///
/// A schedule containing a pass that fails verification yields a
/// certificate whose verdict records the failure (and which
/// [`check_certificate`] refuses) — precisely the bug-finding signal.
pub fn certify_compilation(
    circuit: &str,
    device: &str,
    seed: u64,
    input: &Circuit,
    result: &TranspileResult,
    pipeline: &[String],
    selection: BackendSelection,
) -> EquivalenceCertificate {
    let register_width = result.circuit.num_qubits().max(input.num_qubits());
    let wire_map = end_to_end_wire_map(result, register_width);
    let input_sym = SymCircuit::from_circuit(input);
    let output_sym = SymCircuit::from_circuit(&result.circuit);
    // The evidence goal compares the emitted output against itself: at
    // emission time the pipeline output *is* the replay, so both sides
    // symbolically execute to the same hash-consed terms, and the recorded
    // fingerprints are exactly what an honest checker's replay reproduces.
    let goal = Goal::Equivalence { lhs: output_sym.clone(), rhs: output_sym.clone() };
    let mut registry = BackendRegistry::new(selection);
    registry.prewarm(register_width);
    let (verdict, evidence) = registry.discharge_with_evidence(&goal);
    let verdict = match verify_pipeline_passes(pipeline, selection) {
        Err(failure) => CachedVerdict::Refuted { explanation: failure, site: None },
        Ok(_) => CachedVerdict::from_verdict(&verdict),
    };
    EquivalenceCertificate {
        circuit: circuit.to_string(),
        device: device.to_string(),
        seed,
        pipeline: pipeline.to_vec(),
        register_width,
        rule_library: qc_symbolic::rule_library_fingerprint(),
        selection,
        backend: selection.backend_id_for(GoalClass::CircuitEquivalence).to_string(),
        input_fingerprint: circuit_fingerprint(&input_sym),
        output_fingerprint: circuit_fingerprint(&output_sym),
        input: input_sym,
        output: output_sym,
        wire_map,
        evidence,
        verdict,
    }
}

/// Independently re-validates a certificate: recomputes both circuit
/// fingerprints, matches the rule library and backend routing of *this*
/// binary, verifies each scheduled pass once per process
/// ([`verify_pipeline_passes`]), replays the pipeline on the
/// embedded input (requiring the replay to reproduce the certificate's
/// wire map), and compares the embedded output against the replayed output
/// through a fresh registry — refusing any divergence in verdict or
/// per-wire evidence.  Any tampering with fingerprints, the pipeline, the
/// wire map, or the evidence is refused with a message naming the first
/// mismatching field.
///
/// # Errors
///
/// Returns a human-readable description of the first check that failed.
pub fn check_certificate(cert: &EquivalenceCertificate) -> Result<(), String> {
    let stated = cert.input_fingerprint;
    let actual = circuit_fingerprint(&cert.input);
    if stated != actual {
        return Err(format!(
            "input circuit fingerprint mismatch: certificate states {stated} but the \
             embedded circuit hashes to {actual}"
        ));
    }
    let stated = cert.output_fingerprint;
    let actual = circuit_fingerprint(&cert.output);
    if stated != actual {
        return Err(format!(
            "output circuit fingerprint mismatch: certificate states {stated} but the \
             embedded circuit hashes to {actual}"
        ));
    }
    let resident = qc_symbolic::rule_library_fingerprint();
    if cert.rule_library != resident {
        return Err(format!(
            "rule library mismatch: certificate evidence was produced under {} but this \
             binary's library is {resident} — the normal forms are not comparable",
            cert.rule_library
        ));
    }
    let routed = cert.selection.backend_id_for(GoalClass::CircuitEquivalence);
    if cert.backend != routed {
        return Err(format!(
            "backend mismatch: certificate claims backend `{}` but selection `{}` routes \
             equivalence goals to `{routed}`",
            cert.backend, cert.selection
        ));
    }
    if cert.wire_map.len() != cert.register_width {
        return Err(format!(
            "wire map covers {} wires but the register has {}",
            cert.wire_map.len(),
            cert.register_width
        ));
    }
    let device = CouplingMap::from_spec(&cert.device)
        .map_err(|error| format!("device `{}` does not parse: {error}", cert.device))?;
    let expected: Vec<String> =
        giallar_pipeline_pass_names(&device, cert.seed).into_iter().map(str::to_string).collect();
    if cert.pipeline != expected {
        return Err(format!(
            "pipeline mismatch: certificate lists [{}] but the standard pipeline for `{}` \
             is [{}]",
            cert.pipeline.join(", "),
            cert.device,
            expected.join(", ")
        ));
    }
    if let Err(failure) = verify_pipeline_passes(&cert.pipeline, cert.selection) {
        return Err(format!("pipeline verification failed: {failure}"));
    }
    let input_circuit = concrete_circuit(&cert.input)?;
    let replayed = baseline_transpile(&input_circuit, &device, cert.seed)
        .map_err(|error| format!("replaying the pipeline failed: {error}"))?;
    let replay_width = replayed.circuit.num_qubits().max(input_circuit.num_qubits());
    if replay_width != cert.register_width {
        return Err(format!(
            "register width mismatch: certificate states {} but replaying the pipeline \
             produces {replay_width}",
            cert.register_width
        ));
    }
    let replay_map = end_to_end_wire_map(&replayed, cert.register_width);
    if replay_map != cert.wire_map {
        return Err(format!(
            "wire map mismatch: certificate states {:?} but replaying the pipeline \
             produces {replay_map:?}",
            cert.wire_map
        ));
    }
    let goal = Goal::Equivalence {
        lhs: cert.output.clone(),
        rhs: SymCircuit::from_circuit(&replayed.circuit),
    };
    let mut registry = BackendRegistry::new(cert.selection);
    registry.prewarm(cert.register_width);
    let (verdict, evidence) = registry.discharge_with_evidence(&goal);
    if evidence.len() != cert.evidence.len() {
        return Err(format!(
            "evidence covers {} wires but a fresh discharge produces {} — the register \
             width or a circuit was altered",
            cert.evidence.len(),
            evidence.len()
        ));
    }
    for (stated, fresh) in cert.evidence.iter().zip(&evidence) {
        if stated != fresh {
            return Err(format!(
                "wire {} evidence does not match a fresh discharge: certificate states \
                 target={} lhs={} rhs={} agreed={}, recomputed target={} lhs={} rhs={} \
                 agreed={}",
                stated.wire,
                stated.target,
                stated.lhs_normal,
                stated.rhs_normal,
                stated.agreed,
                fresh.target,
                fresh.lhs_normal,
                fresh.rhs_normal,
                fresh.agreed
            ));
        }
    }
    let fresh_verdict = CachedVerdict::from_verdict(&verdict);
    if cert.verdict != fresh_verdict {
        return Err(format!(
            "verdict mismatch: certificate records {:?} but a fresh discharge answers {:?}",
            cert.verdict, fresh_verdict
        ));
    }
    if !cert.verdict.is_proved() {
        return Err(format!(
            "certificate does not certify equivalence: the recorded verdict is {:?}",
            cert.verdict
        ));
    }
    Ok(())
}

impl EquivalenceCertificate {
    /// The proof obligation a certificate stands for, used for cache
    /// keying: the description folds in the compilation coordinates, the
    /// goal is the output ≡ input equivalence.
    pub fn obligation(&self) -> ProofObligation {
        ProofObligation {
            description: format!("certify {} on {} seed {}", self.circuit, self.device, self.seed),
            goal: Goal::EquivalenceUpToPermutation {
                lhs: self.input.clone(),
                rhs: self.output.clone(),
                perm: self.wire_map.clone(),
            },
        }
    }

    /// The certificate's verdict-cache key, computed exactly like a proof
    /// obligation's ([`obligation_fingerprint`]) so the daemon stores
    /// certificate verdicts in the same [`crate::cache::VerdictCache`] as
    /// pass obligations.
    pub fn cache_key(&self) -> Fingerprint {
        obligation_fingerprint(
            &self.obligation(),
            self.rule_library,
            &self.backend,
            self.register_width,
        )
    }

    /// Encodes the certificate as a JSON value.  Encoding is byte-stable:
    /// re-encoding a decoded certificate reproduces the document exactly.
    pub fn to_json(&self) -> Value {
        Value::object(vec![
            ("schema", Value::String(CERT_SCHEMA.to_string())),
            ("circuit", Value::String(self.circuit.clone())),
            ("device", Value::String(self.device.clone())),
            ("seed", Value::Int(self.seed as i64)),
            (
                "pipeline",
                Value::Array(self.pipeline.iter().map(|p| Value::String(p.clone())).collect()),
            ),
            ("register_width", Value::Int(self.register_width as i64)),
            ("rule_library", Value::String(self.rule_library.to_hex())),
            ("selection", Value::String(self.selection.id().to_string())),
            ("backend", Value::String(self.backend.clone())),
            ("input_fingerprint", Value::String(self.input_fingerprint.to_hex())),
            ("output_fingerprint", Value::String(self.output_fingerprint.to_hex())),
            ("input", sym_circuit_to_json(&self.input)),
            ("output", sym_circuit_to_json(&self.output)),
            (
                "wire_map",
                Value::Array(self.wire_map.iter().map(|&w| Value::Int(w as i64)).collect()),
            ),
            ("evidence", Value::Array(self.evidence.iter().map(wire_evidence_to_json).collect())),
            ("verdict", self.verdict.to_json_value()),
        ])
    }

    /// Decodes a certificate from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed member (including a
    /// schema mismatch).
    pub fn from_json(value: &Value) -> Result<EquivalenceCertificate, String> {
        match value.get("schema").and_then(Value::as_str) {
            Some(CERT_SCHEMA) => {}
            Some(other) => {
                return Err(format!(
                    "certificate: schema mismatch: expected `{CERT_SCHEMA}`, got `{other}`"
                ))
            }
            None => {
                return Err(format!("certificate: missing `schema` (expected `{CERT_SCHEMA}`)"))
            }
        }
        let string = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("certificate: missing `{key}`"))
        };
        let fingerprint = |key: &str| {
            string(key).and_then(|hex| {
                Fingerprint::from_hex(&hex)
                    .ok_or_else(|| format!("certificate: `{key}` is not a fingerprint"))
            })
        };
        let usize_of = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_int)
                .and_then(|v| usize::try_from(v).ok())
                .ok_or_else(|| format!("certificate: missing `{key}`"))
        };
        let selection_id = string("selection")?;
        let selection = BackendSelection::parse(&selection_id)
            .ok_or_else(|| format!("certificate: unknown selection `{selection_id}`"))?;
        let pipeline = value
            .get("pipeline")
            .and_then(Value::as_array)
            .ok_or("certificate: missing `pipeline`")?
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or("certificate: `pipeline` must hold strings".to_string())
            })
            .collect::<Result<Vec<String>, String>>()?;
        let wire_map = value
            .get("wire_map")
            .and_then(Value::as_array)
            .ok_or("certificate: missing `wire_map`")?
            .iter()
            .map(|w| {
                w.as_int()
                    .and_then(|v| usize::try_from(v).ok())
                    .ok_or("certificate: `wire_map` must hold non-negative integers".to_string())
            })
            .collect::<Result<Vec<usize>, String>>()?;
        let evidence = value
            .get("evidence")
            .and_then(Value::as_array)
            .ok_or("certificate: missing `evidence`")?
            .iter()
            .map(wire_evidence_from_json)
            .collect::<Result<Vec<WireEvidence>, String>>()?;
        Ok(EquivalenceCertificate {
            circuit: string("circuit")?,
            device: string("device")?,
            seed: value
                .get("seed")
                .and_then(Value::as_int)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or("certificate: missing `seed`")?,
            pipeline,
            register_width: usize_of("register_width")?,
            rule_library: fingerprint("rule_library")?,
            selection,
            backend: string("backend")?,
            input_fingerprint: fingerprint("input_fingerprint")?,
            output_fingerprint: fingerprint("output_fingerprint")?,
            input: sym_circuit_from_json(value.get("input").ok_or("certificate: missing `input`")?)
                .map_err(|e| format!("certificate input: {e}"))?,
            output: sym_circuit_from_json(
                value.get("output").ok_or("certificate: missing `output`")?,
            )
            .map_err(|e| format!("certificate output: {e}"))?,
            wire_map,
            evidence,
            verdict: CachedVerdict::from_json_value(
                value.get("verdict").ok_or("certificate: missing `verdict`")?,
            )?,
        })
    }
}

fn wire_evidence_to_json(evidence: &WireEvidence) -> Value {
    Value::object(vec![
        ("wire", Value::Int(evidence.wire as i64)),
        ("target", Value::Int(evidence.target as i64)),
        ("lhs_normal", Value::String(evidence.lhs_normal.to_hex())),
        ("rhs_normal", Value::String(evidence.rhs_normal.to_hex())),
        ("agreed", Value::Bool(evidence.agreed)),
    ])
}

fn wire_evidence_from_json(value: &Value) -> Result<WireEvidence, String> {
    let usize_of = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_int)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| format!("evidence: missing `{key}`"))
    };
    let fingerprint = |key: &str| {
        value
            .get(key)
            .and_then(Value::as_str)
            .and_then(Fingerprint::from_hex)
            .ok_or_else(|| format!("evidence: missing `{key}`"))
    };
    Ok(WireEvidence {
        wire: usize_of("wire")?,
        target: usize_of("target")?,
        lhs_normal: fingerprint("lhs_normal")?,
        rhs_normal: fingerprint("rhs_normal")?,
        agreed: value.get("agreed").and_then(Value::as_bool).ok_or("evidence: missing `agreed`")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verifier::verify_pass_with;
    use crate::wrapper::baseline_transpile;
    use qc_ir::CouplingMap;

    fn pipeline_names(device: &CouplingMap, seed: u64) -> Vec<String> {
        giallar_pipeline_pass_names(device, seed).into_iter().map(str::to_string).collect()
    }

    fn sample_certificate() -> EquivalenceCertificate {
        let mut circuit = Circuit::new(4);
        circuit.h(0).cx(0, 3).cx(1, 3).cx(0, 2).cx(2, 3);
        let device = CouplingMap::line(5);
        let result = baseline_transpile(&circuit, &device, 7).unwrap();
        certify_compilation(
            "sample",
            "line:5",
            7,
            &circuit,
            &result,
            &pipeline_names(&device, 7),
            BackendSelection::Default,
        )
    }

    #[test]
    fn a_real_compilation_certifies_and_checks() {
        let cert = sample_certificate();
        assert!(cert.verdict.is_proved(), "{:?}", cert.verdict);
        assert_eq!(cert.evidence.len(), cert.register_width);
        assert_eq!(cert.wire_map.len(), cert.register_width);
        assert!(cert.evidence.iter().all(|e| e.agreed));
        check_certificate(&cert).unwrap();
    }

    #[test]
    fn certificates_round_trip_byte_stably_through_json() {
        let cert = sample_certificate();
        let text = cert.to_json().to_pretty();
        let back = EquivalenceCertificate::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, cert);
        assert_eq!(back.to_json().to_pretty(), text);
        assert_eq!(back.cache_key(), cert.cache_key());
    }

    #[test]
    fn tampered_fingerprints_wire_maps_and_evidence_are_refused() {
        let cert = sample_certificate();

        let mut tampered = cert.clone();
        tampered.input_fingerprint = Fingerprint(cert.input_fingerprint.0 ^ 1);
        let error = check_certificate(&tampered).unwrap_err();
        assert!(error.contains("input circuit fingerprint mismatch"), "{error}");

        let mut tampered = cert.clone();
        tampered.output_fingerprint = Fingerprint(cert.output_fingerprint.0 ^ 1);
        assert!(check_certificate(&tampered)
            .unwrap_err()
            .contains("output circuit fingerprint mismatch"));

        let mut tampered = cert.clone();
        tampered.rule_library = Fingerprint(cert.rule_library.0 ^ 1);
        assert!(check_certificate(&tampered).unwrap_err().contains("rule library mismatch"));

        let mut tampered = cert.clone();
        tampered.backend = "reference".to_string();
        assert!(check_certificate(&tampered).unwrap_err().contains("backend mismatch"));

        // Swapping two wire-map entries breaks the replay comparison: the
        // pipeline deterministically reproduces the original map.
        let mut tampered = cert.clone();
        tampered.wire_map.swap(0, 1);
        assert_ne!(tampered.wire_map, cert.wire_map, "sample wire map must be non-constant");
        let error = check_certificate(&tampered).unwrap_err();
        assert!(error.contains("wire map mismatch"), "{error}");

        let mut tampered = cert.clone();
        tampered.wire_map.pop();
        assert!(check_certificate(&tampered).unwrap_err().contains("wire map covers"));

        let mut tampered = cert.clone();
        tampered.pipeline.pop();
        assert!(check_certificate(&tampered).unwrap_err().contains("pipeline mismatch"));

        let mut tampered = cert.clone();
        tampered.evidence[0].lhs_normal = Fingerprint(cert.evidence[0].lhs_normal.0 ^ 1);
        assert!(check_certificate(&tampered)
            .unwrap_err()
            .contains("wire 0 evidence does not match"));

        // Doctoring the output circuit *and* recomputing its fingerprint
        // defeats the fingerprint check but not the replay: the solver
        // compares the embedded output against a fresh compile.
        let mut tampered = cert.clone();
        tampered.output.push_gate(qc_ir::Gate::new(qc_ir::GateKind::X, vec![0]));
        tampered.output_fingerprint = circuit_fingerprint(&tampered.output);
        let error = check_certificate(&tampered).unwrap_err();
        assert!(error.contains("evidence does not match"), "{error}");

        let mut tampered = cert.clone();
        tampered.verdict = CachedVerdict::Refuted { explanation: "forged".to_string(), site: None };
        assert!(check_certificate(&tampered).unwrap_err().contains("verdict mismatch"));
    }

    #[test]
    fn reference_selection_certifies_the_same_compilation() {
        let mut circuit = Circuit::new(3);
        circuit.h(0).cx(0, 2).cx(1, 2);
        let device = CouplingMap::line(4);
        let result = baseline_transpile(&circuit, &device, 3).unwrap();
        let cert = certify_compilation(
            "ref",
            "line:4",
            3,
            &circuit,
            &result,
            &pipeline_names(&device, 3),
            BackendSelection::Reference,
        );
        assert!(cert.verdict.is_proved(), "{:?}", cert.verdict);
        assert_eq!(cert.backend, "reference");
        check_certificate(&cert).unwrap();
        // Honest evidence fingerprints the raw hash-consed output terms,
        // so it is backend-agnostic: a *consistent* relabelling to the
        // default routing re-validates under that selection...
        let mut relabelled = cert.clone();
        relabelled.selection = BackendSelection::Default;
        relabelled.backend = "rewrite-equiv".to_string();
        check_certificate(&relabelled).unwrap();
        // ...but claiming a backend the selection does not route to is
        // refused before any solver work.
        let mut tampered = cert.clone();
        tampered.backend = "rewrite-equiv".to_string();
        assert!(check_certificate(&tampered).unwrap_err().contains("backend mismatch"));
    }

    #[test]
    fn unknown_schedule_passes_are_refused_on_every_call() {
        let pipeline = vec!["CXCancellation".to_string(), "NoSuchPass".to_string()];
        let expected = "pipeline pass `NoSuchPass` is not in the verified registry";
        for _ in 0..2 {
            for selection in BackendSelection::ALL {
                assert_eq!(verify_pipeline_passes(&pipeline, selection).unwrap_err(), expected);
            }
        }
        let memo = SCHEDULE_REPORTS.get().unwrap().lock().unwrap();
        assert!(!memo.keys().any(|(name, _)| name == "NoSuchPass"));
    }

    #[test]
    fn schedule_reports_are_memoized_per_selection() {
        let device = CouplingMap::line(5);
        let pipeline = pipeline_names(&device, 7);
        let passes = verified_passes();
        for selection in BackendSelection::ALL {
            let first = verify_pipeline_passes(&pipeline, selection).unwrap();
            let again = verify_pipeline_passes(&pipeline, selection).unwrap();
            assert_eq!(first.len(), pipeline.len());
            for ((memo, repeat), name) in first.iter().zip(&again).zip(&pipeline) {
                let pass = passes.iter().find(|p| p.name == name.as_str()).unwrap();
                let fresh = verify_pass_with(pass, selection);
                assert_eq!(memo.name, fresh.name);
                assert_eq!(memo.pass_loc, fresh.pass_loc);
                assert_eq!(memo.subgoals, fresh.subgoals);
                assert_eq!(memo.verified, fresh.verified);
                assert_eq!(memo.failure, fresh.failure);
                // The repeat call reuses the stored report, timing included.
                assert_eq!(memo.time_seconds.to_bits(), repeat.time_seconds.to_bits(), "{name}");
            }
        }
        // Each selection keeps its own entry per pass.
        let memo = SCHEDULE_REPORTS.get().unwrap().lock().unwrap();
        for name in &pipeline {
            for selection in BackendSelection::ALL {
                assert!(memo.contains_key(&(name.clone(), selection)), "{name} {selection}");
            }
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let cert = sample_certificate();
        let good = cert.to_json().to_pretty();
        let mut value = crate::json::parse(&good).unwrap();
        assert!(EquivalenceCertificate::from_json(&value).is_ok());
        if let Value::Object(members) = &mut value {
            members.retain(|(k, _)| k != "evidence");
        }
        assert!(EquivalenceCertificate::from_json(&value)
            .unwrap_err()
            .contains("missing `evidence`"));
        let wrong_schema = good.replace("giallar-cert/v1", "giallar-cert/v0");
        assert!(EquivalenceCertificate::from_json(&crate::json::parse(&wrong_schema).unwrap())
            .unwrap_err()
            .contains("schema mismatch"));
    }
}
