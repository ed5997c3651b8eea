//! Symbolic execution of quantum circuits onto `smtlite` terms.
//!
//! This is the `app`/`app1q`/`app2q` machinery of §5: every qubit of the
//! register is a term, a gate application replaces the terms of its operand
//! wires with new applications, and opaque segments become uninterpreted
//! functions of the wires they may touch.

use std::collections::HashMap;
use std::mem::{discriminant, Discriminant};
use std::sync::OnceLock;

use qc_ir::{ConditionKind, Gate, GateKind};
use smtlite::{Context, SymbolId, TermId};

use crate::circuit::{SymCircuit, SymElement};
use crate::rules::circuit_rewrite_rules;

/// Canonical encoding of a gate parameter as a term symbol.
///
/// Two parameters produce the same symbol exactly when their canonical
/// formatting agrees, which is the case for parameters produced by the same
/// arithmetic on both sides of an obligation.
pub fn param_symbol(value: f64) -> String {
    format!("#par:{value:.12e}")
}

/// The function-symbol prefix used for a gate kind (without the output-wire
/// suffix used by multi-qubit gates).
pub fn gate_func_name(gate: &Gate) -> String {
    let base = gate.kind.name().to_string();
    match &gate.condition {
        None => base,
        Some(cond) => match cond.kind {
            ConditionKind::Classical { bit, value } => {
                format!("cif[c{bit}={}]{base}", value as u8)
            }
            ConditionKind::Quantum { qubit } => format!("qif[q{qubit}]{base}"),
        },
    }
}

/// A symbolic executor: owns an [`smtlite::Context`] pre-loaded with the
/// circuit rewrite rules and the initial register terms `q0, q1, …`.
///
/// Gate heads and parameter symbols are interned once per executor and
/// remembered by key, so applying a gate builds no strings.  The memos hold
/// ids into the context's arena, which only ever grows.
#[derive(Debug, Clone)]
pub struct SymbolicExecutor {
    ctx: Context,
    initial: Vec<TermId>,
    /// Parameter-symbol terms by the parameter's IEEE-754 bit pattern.
    params: HashMap<u64, TermId>,
    /// Head symbols by (gate kind, condition, output wire); output `0` is
    /// the unsuffixed head of a one-qubit gate, `k ≥ 1` the `_k` head of a
    /// multi-qubit gate.
    heads: HashMap<(Discriminant<GateKind>, Option<ConditionKind>, usize), SymbolId>,
}

impl SymbolicExecutor {
    /// Creates an executor over a register of `num_qubits` symbolic qubits,
    /// with the full Giallar rewrite-rule library installed.
    ///
    /// The library is installed — compiled and head-indexed — into a
    /// template context **once per process**; each executor starts from a
    /// clone of that template.  The clone shares the template's compiled
    /// library and symbol table instead of copying them, so an executor
    /// costs its register (`num_qubits` interned terms), not the library.
    pub fn new(num_qubits: usize) -> Self {
        static TEMPLATE: OnceLock<Context> = OnceLock::new();
        let template = TEMPLATE.get_or_init(|| {
            let mut ctx = Context::new();
            for rule in circuit_rewrite_rules() {
                ctx.add_rule(rule.rule.clone());
            }
            ctx
        });
        let mut ctx = template.clone();
        let initial = (0..num_qubits).map(|i| ctx.arena_mut().symbol(&format!("q{i}"))).collect();
        SymbolicExecutor { ctx, initial, params: HashMap::new(), heads: HashMap::new() }
    }

    /// The initial register terms.
    pub fn initial_register(&self) -> Vec<TermId> {
        self.initial.clone()
    }

    /// Access to the underlying solver context.
    pub fn context_mut(&mut self) -> &mut Context {
        &mut self.ctx
    }

    /// Read-only access to the underlying solver context.
    pub fn context(&self) -> &Context {
        &self.ctx
    }

    /// Symbolically executes a circuit starting from the initial register.
    pub fn execute(&mut self, circuit: &SymCircuit) -> Vec<TermId> {
        let state = self.initial_register();
        self.execute_from(circuit, &state)
    }

    /// Symbolically executes two circuits from the initial register.  A
    /// `rhs` bit-identical to `lhs` ([`SymCircuit::is_bit_identical`]) is
    /// not executed again: hash-consing would map it to the very same
    /// terms, so `lhs`'s are reused.
    pub fn execute_pair(
        &mut self,
        lhs: &SymCircuit,
        rhs: &SymCircuit,
    ) -> (Vec<TermId>, Vec<TermId>) {
        let out_lhs = self.execute(lhs);
        let out_rhs = if lhs.is_bit_identical(rhs) { out_lhs.clone() } else { self.execute(rhs) };
        (out_lhs, out_rhs)
    }

    /// Symbolically executes a circuit from an explicit register state.
    ///
    /// # Panics
    ///
    /// Panics when the state has fewer qubits than the circuit requires.
    pub fn execute_from(&mut self, circuit: &SymCircuit, state: &[TermId]) -> Vec<TermId> {
        assert!(state.len() >= circuit.num_qubits(), "register state smaller than the circuit");
        let mut state = state.to_vec();
        for element in circuit.elements() {
            match element {
                SymElement::Gate(gate) => self.apply_gate(gate, &mut state),
                SymElement::Segment { name, excluded_qubits } => {
                    self.apply_segment(name, excluded_qubits, &mut state);
                }
            }
        }
        state
    }

    /// Applies a single gate to the symbolic state: `app1q(U, q)` for one
    /// operand, else one output term per wire with head `U_k`.  Every term
    /// is an application of the head to the parameter symbols followed by
    /// the input wires.  Barriers have identity semantics.
    pub fn apply_gate(&mut self, gate: &Gate, state: &mut [TermId]) {
        if gate.kind == GateKind::Barrier {
            return;
        }
        let params = gate.kind.params();
        let mut args = Vec::with_capacity(params.len() + gate.qubits.len());
        for &p in params.iter() {
            args.push(self.param_term(p));
        }
        // Every output reads the input wires, captured here before any
        // output is written.
        args.extend(gate.qubits.iter().map(|&q| state[q]));
        if let [q] = gate.qubits[..] {
            let head = self.head(gate, 0);
            state[q] = self.ctx.arena_mut().app_sym(head, args);
        } else {
            for (k, &q) in gate.qubits.iter().enumerate() {
                let head = self.head(gate, k + 1);
                let last = k + 1 == gate.qubits.len();
                let args = if last { std::mem::take(&mut args) } else { args.clone() };
                state[q] = self.ctx.arena_mut().app_sym(head, args);
            }
        }
    }

    /// The term of a parameter symbol ([`param_symbol`]), interned on first
    /// use.
    fn param_term(&mut self, value: f64) -> TermId {
        let arena = self.ctx.arena_mut();
        *self.params.entry(value.to_bits()).or_insert_with(|| arena.symbol(&param_symbol(value)))
    }

    /// The head symbol of output `output` of `gate` ([`gate_func_name`],
    /// suffixed `_output` when `output ≥ 1`), interned on first use.
    fn head(&mut self, gate: &Gate, output: usize) -> SymbolId {
        let key = (discriminant(&gate.kind), gate.condition.map(|c| c.kind), output);
        let arena = self.ctx.arena_mut();
        *self.heads.entry(key).or_insert_with(|| {
            let name = match output {
                0 => gate_func_name(gate),
                k => format!("{}_{k}", gate_func_name(gate)),
            };
            arena.intern_symbol(&name)
        })
    }

    /// Applies an opaque segment: every qubit the segment may touch receives
    /// an uninterpreted term that depends on all touched input wires.
    fn apply_segment(&mut self, name: &str, excluded: &[usize], state: &mut [TermId]) {
        let touched: Vec<usize> = (0..state.len()).filter(|q| !excluded.contains(q)).collect();
        let inputs: Vec<TermId> = touched.iter().map(|&q| state[q]).collect();
        for &q in &touched {
            let out = self.ctx.arena_mut().app(&format!("seg_{name}_{q}"), inputs.clone());
            state[q] = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qc_ir::Circuit;

    #[test]
    fn a_pair_executes_like_two_executions() {
        // `0.0 == -0.0`, but the two angles intern distinct parameter
        // symbols, so only a bit-identical right side may reuse the left.
        let mut plus = Circuit::new(2);
        plus.rz(0.0, 0).cx(0, 1);
        let mut minus = Circuit::new(2);
        minus.rz(-0.0, 0).cx(0, 1);
        let (plus, minus) = (SymCircuit::from_circuit(&plus), SymCircuit::from_circuit(&minus));
        assert_eq!(plus, minus);
        assert!(!plus.is_bit_identical(&minus));
        assert!(plus.is_bit_identical(&plus.clone()));
        let mut exec = SymbolicExecutor::new(2);
        for (lhs, rhs) in [(&plus, &plus), (&plus, &plus.clone()), (&plus, &minus), (&minus, &plus)]
        {
            let pair = exec.execute_pair(lhs, rhs);
            assert_eq!(pair, (exec.execute(lhs), exec.execute(rhs)));
        }
        let (a, b) = exec.execute_pair(&plus, &minus);
        assert_ne!(a[0], b[0]);
    }

    #[test]
    fn ghz_produces_the_paper_terms() {
        // §5 example: GHZ = H(0); CX(0,1); CX(1,2).
        let mut ghz = Circuit::new(3);
        ghz.h(0).cx(0, 1).cx(1, 2);
        let mut exec = SymbolicExecutor::new(3);
        let out = exec.execute(&SymCircuit::from_circuit(&ghz));
        let display: Vec<String> = out.iter().map(|&t| exec.context().arena().display(t)).collect();
        assert_eq!(display[0], "cx_1(h(q0), q1)");
        assert_eq!(display[1], "cx_1(cx_2(h(q0), q1), q2)");
        assert_eq!(display[2], "cx_2(cx_2(h(q0), q1), q2)");
    }

    #[test]
    fn barriers_do_not_change_terms() {
        let mut c = Circuit::new(2);
        c.h(0).barrier_all().h(1);
        let mut plain = Circuit::new(2);
        plain.h(0).h(1);
        let mut exec = SymbolicExecutor::new(2);
        let a = exec.execute(&SymCircuit::from_circuit(&c));
        let b = exec.execute(&SymCircuit::from_circuit(&plain));
        assert_eq!(a, b);
    }

    #[test]
    fn conditioned_gates_get_distinct_functions() {
        let mut exec = SymbolicExecutor::new(1);
        let plain = Gate::new(GateKind::U1(0.5), vec![0]);
        let conditioned = Gate::new(GateKind::U1(0.5), vec![0]).with_classical_condition(0, true);
        let mut s1 = exec.initial_register();
        let mut s2 = exec.initial_register();
        exec.apply_gate(&plain, &mut s1);
        exec.apply_gate(&conditioned, &mut s2);
        assert_ne!(s1[0], s2[0]);
        // The same conditioned gate twice produces the same term.
        let mut s3 = exec.initial_register();
        exec.apply_gate(&conditioned, &mut s3);
        assert_eq!(s2[0], s3[0]);
    }

    #[test]
    fn segments_respect_exclusions() {
        let mut sym = SymCircuit::new(3);
        sym.push_segment("C1", vec![0, 1]);
        let mut exec = SymbolicExecutor::new(3);
        let init = exec.initial_register();
        let out = exec.execute(&sym);
        // Qubits 0 and 1 are untouched; qubit 2 becomes an opaque application.
        assert_eq!(out[0], init[0]);
        assert_eq!(out[1], init[1]);
        assert_ne!(out[2], init[2]);
        let shown = exec.context().arena().display(out[2]);
        assert!(shown.starts_with("seg_C1_2("), "{shown}");
    }

    #[test]
    fn identical_segments_give_identical_terms() {
        let mut a = SymCircuit::new(2);
        a.push_segment("C", vec![]);
        let mut b = SymCircuit::new(2);
        b.push_segment("C", vec![]);
        let mut exec = SymbolicExecutor::new(2);
        let oa = exec.execute(&a);
        let ob = exec.execute(&b);
        assert_eq!(oa, ob);
        // A differently named segment is unrelated.
        let mut c = SymCircuit::new(2);
        c.push_segment("D", vec![]);
        let oc = exec.execute(&c);
        assert_ne!(oa, oc);
    }

    #[test]
    fn a_rule_added_to_one_executor_stays_in_it() {
        // Executors share the template's compiled library; installing a rule
        // in one must copy it, leaving the template and siblings untouched.
        let mut extended = SymbolicExecutor::new(1);
        let mut sibling = SymbolicExecutor::new(1);
        let library = sibling.context().num_rules();
        extended.context_mut().add_rule(smtlite::RewriteRule::new(
            "unwrap",
            smtlite::Pattern::app("wrap", vec![smtlite::Pattern::var("q")]),
            smtlite::Pattern::var("q"),
        ));
        assert_eq!(extended.context().num_rules(), library + 1);
        let mut fresh = SymbolicExecutor::new(1);
        for (exec, rewrites) in [(&mut extended, true), (&mut sibling, false), (&mut fresh, false)]
        {
            let q0 = exec.initial_register()[0];
            let wrapped = exec.context_mut().arena_mut().app("wrap", vec![q0]);
            let normal = exec.context_mut().normalize(wrapped);
            assert_eq!(normal == q0, rewrites);
            assert_eq!(exec.context().num_rules(), library + usize::from(rewrites));
        }
    }

    #[test]
    fn param_symbols_are_canonical() {
        assert_eq!(param_symbol(0.5), param_symbol(0.5));
        assert_ne!(param_symbol(0.5), param_symbol(0.25));
    }
}
