//! OpenQASM 2.0 subset printer and parser.
//!
//! The supported subset matches the paper's circuit syntax (§2.2): gate
//! applications, barriers, measurements and resets over flat registers.
//! Classical control flow (`if`) is not part of the syntax Giallar reasons
//! about and is rejected by both directions.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::circuit::Circuit;
use crate::coupling::MAX_QUBITS;
use crate::error::{escaped, QcError, Result};
use crate::gate::{Gate, GateKind};

/// Serialises a circuit to OpenQASM 2.0.
///
/// # Errors
///
/// Returns [`QcError::Unsupported`] for conditioned gates, which are outside
/// the supported subset.
pub fn to_qasm(circuit: &Circuit) -> Result<String> {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\n");
    out.push_str("include \"qelib1.inc\";\n");
    let _ = writeln!(out, "qreg q[{}];", circuit.num_qubits());
    if circuit.num_clbits() > 0 {
        let _ = writeln!(out, "creg c[{}];", circuit.num_clbits());
    }
    for gate in circuit.iter() {
        if gate.is_conditioned() {
            return Err(QcError::Unsupported(
                "conditioned gates cannot be serialised to the OpenQASM subset".to_string(),
            ));
        }
        match gate.kind {
            GateKind::Measure => {
                let _ = writeln!(out, "measure q[{}] -> c[{}];", gate.qubits[0], gate.clbits[0]);
            }
            GateKind::Barrier => {
                let qs: Vec<String> = gate.qubits.iter().map(|q| format!("q[{q}]")).collect();
                let _ = writeln!(out, "barrier {};", qs.join(","));
            }
            _ => {
                let params = gate.kind.params();
                let qs: Vec<String> = gate.qubits.iter().map(|q| format!("q[{q}]")).collect();
                if params.is_empty() {
                    let _ = writeln!(out, "{} {};", gate.name(), qs.join(","));
                } else {
                    // `{}` prints the shortest representation that round-trips
                    // exactly through `f64` parsing.
                    let ps: Vec<String> = params.iter().map(|p| format!("{p}")).collect();
                    let _ = writeln!(out, "{}({}) {};", gate.name(), ps.join(","), qs.join(","));
                }
            }
        }
    }
    Ok(out)
}

/// Parses an OpenQASM 2.0 program in the supported subset into a [`Circuit`].
///
/// # Errors
///
/// Returns [`QcError::Parse`] with a line number for malformed input,
/// including a quantum or classical register total above [`MAX_QUBITS`]
/// (refused at its declaration, before any gate is expanded), an unknown
/// gate, a wrong parameter count and a gate that does not fit its
/// registers (`cx q[0],q[0];`), and
/// [`QcError::Unsupported`] for constructs outside the subset (custom gate
/// definitions, `if`, opaque declarations).
pub fn from_qasm(source: &str) -> Result<Circuit> {
    let mut qregs: BTreeMap<String, (usize, usize)> = BTreeMap::new(); // name -> (offset, size)
    let mut cregs: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    let mut num_qubits = 0usize;
    let mut num_clbits = 0usize;
    // Each gate with the line it was written on.
    let mut gates: Vec<(usize, Gate)> = Vec::new();

    for (line_no, raw_line) in source.lines().enumerate() {
        let line_no = line_no + 1;
        let line = match raw_line.find("//") {
            Some(pos) => &raw_line[..pos],
            None => raw_line,
        };
        for stmt in line.split(';') {
            let stmt = stmt.trim();
            if stmt.is_empty() {
                continue;
            }
            let err = |msg: &str| QcError::Parse { line: line_no, message: msg.to_string() };
            if stmt.starts_with("OPENQASM") || stmt.starts_with("include") {
                continue;
            }
            if stmt.starts_with("gate ") || stmt.starts_with("opaque ") || stmt.starts_with("if") {
                return Err(QcError::Unsupported(format!(
                    "line {line_no}: `{}` is outside the supported OpenQASM subset",
                    escaped(stmt)
                )));
            }
            let declared = |total: usize, size: usize| {
                total.checked_add(size).filter(|&n| n <= MAX_QUBITS).ok_or_else(|| {
                    err(&format!(
                        "`{}` exceeds the register ceiling of {MAX_QUBITS}",
                        escaped(stmt)
                    ))
                })
            };
            if let Some(rest) = stmt.strip_prefix("qreg ") {
                let (name, size) = parse_register_decl(rest).ok_or_else(|| err("bad qreg"))?;
                qregs.insert(name, (num_qubits, size));
                num_qubits = declared(num_qubits, size)?;
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("creg ") {
                let (name, size) = parse_register_decl(rest).ok_or_else(|| err("bad creg"))?;
                cregs.insert(name, (num_clbits, size));
                num_clbits = declared(num_clbits, size)?;
                continue;
            }
            if let Some(rest) = stmt.strip_prefix("measure ") {
                let parts: Vec<&str> = rest.split("->").collect();
                if parts.len() != 2 {
                    return Err(err("measure expects `q -> c`"));
                }
                let qs =
                    resolve_operand(parts[0].trim(), &qregs).ok_or_else(|| err("bad qubit"))?;
                let cs =
                    resolve_operand(parts[1].trim(), &cregs).ok_or_else(|| err("bad clbit"))?;
                if qs.len() != cs.len() {
                    return Err(err("measure register size mismatch"));
                }
                for (q, c) in qs.into_iter().zip(cs) {
                    gates.push((line_no, Gate::measure(q, c)));
                }
                continue;
            }
            // General gate application: name[(params)] operands
            let name_end = stmt
                .find(|c: char| c == '(' || c.is_whitespace())
                .ok_or_else(|| err("expected operands"))?;
            let name = &stmt[..name_end];
            let rest = stmt[name_end..].trim_start();
            let (params, operands_str) = if let Some(stripped) = rest.strip_prefix('(') {
                // Operands hold no parentheses, so the list closes at the last `)`.
                let close = stripped.rfind(')').ok_or_else(|| err("unbalanced parentheses"))?;
                let params = stripped[..close]
                    .split(',')
                    .map(|p| eval_param(p.trim()).map_err(|message| err(&message)))
                    .collect::<Result<Vec<f64>>>()?;
                (params, stripped[close + 1..].trim())
            } else {
                (Vec::new(), rest)
            };
            if operands_str.is_empty() {
                return Err(err("expected operands"));
            }
            let operand_lists: Vec<Vec<usize>> = operands_str
                .split(',')
                .map(|op| resolve_operand(op.trim(), &qregs).ok_or_else(|| err("bad operand")))
                .collect::<Result<Vec<Vec<usize>>>>()?;

            if name == "barrier" {
                let qubits: Vec<usize> = operand_lists.into_iter().flatten().collect();
                gates.push((line_no, Gate::barrier(qubits)));
                continue;
            }
            let kind = GateKind::from_name(name, &params).map_err(|e| at_line(line_no, e))?;
            // Broadcast whole-register operands (e.g. `h q;`).
            let broadcast = operand_lists.iter().map(Vec::len).max().unwrap_or(1);
            if operand_lists.iter().any(|list| list.len() != 1 && list.len() != broadcast) {
                return Err(err("broadcast registers differ in size"));
            }
            for i in 0..broadcast {
                let qubits: Vec<usize> = operand_lists
                    .iter()
                    .map(|list| if list.len() == 1 { list[0] } else { list[i] })
                    .collect();
                gates.push((line_no, Gate::new(kind, qubits)));
            }
        }
    }

    let mut circuit = Circuit::with_clbits(num_qubits, num_clbits);
    for (line_no, gate) in gates {
        circuit.push(gate).map_err(|e| at_line(line_no, e))?;
    }
    Ok(circuit)
}

/// Reports a gate's error as a parse error at the line it was written on.
fn at_line(line: usize, error: QcError) -> QcError {
    let message = match error {
        QcError::Unsupported(message) => message,
        other => other.to_string(),
    };
    QcError::Parse { line, message }
}

/// Parses `name[size]` into its components.
fn parse_register_decl(text: &str) -> Option<(String, usize)> {
    let text = text.trim();
    let open = text.find('[')?;
    let close = open + text[open..].find(']')?;
    let name = text[..open].trim().to_string();
    let size: usize = text[open + 1..close].trim().parse().ok()?;
    if name.is_empty() {
        return None;
    }
    Some((name, size))
}

/// Resolves `q[3]` to `[offset+3]` or a bare register name to all its bits.
fn resolve_operand(text: &str, regs: &BTreeMap<String, (usize, usize)>) -> Option<Vec<usize>> {
    if let Some(open) = text.find('[') {
        let close = open + text[open..].find(']')?;
        let name = text[..open].trim();
        let idx: usize = text[open + 1..close].trim().parse().ok()?;
        let &(offset, size) = regs.get(name)?;
        if idx >= size {
            return None;
        }
        Some(vec![offset + idx])
    } else {
        let &(offset, size) = regs.get(text.trim())?;
        Some((offset..offset + size).collect())
    }
}

/// How deeply a parameter expression may nest: each `(` and each unary
/// sign is one level of the evaluator's recursion, so the cap bounds its
/// stack on hostile input.
const MAX_PARAM_DEPTH: usize = 64;

/// Evaluates a parameter expression: numbers, `pi`, unary signs, `+ - * /`
/// and parentheses, nested at most [`MAX_PARAM_DEPTH`] deep.
///
/// # Errors
///
/// Returns the message for a malformed or too deeply nested expression, and
/// for one whose value is not finite (`1e999`, `pi/0`, `0/0`): an angle
/// that is infinite or NaN has no gate semantics and no JSON form.
fn eval_param(expr: &str) -> std::result::Result<f64, String> {
    let mut pos = 0usize;
    let value = tokenize(expr)
        .and_then(|tokens| parse_sum(&tokens, &mut pos, 0).filter(|_| pos == tokens.len()))
        .ok_or_else(|| {
            format!("bad parameter expression (malformed, or nested deeper than {MAX_PARAM_DEPTH})")
        })?;
    if value.is_finite() {
        Ok(value)
    } else {
        Err("parameter expression is not a finite number".to_string())
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(expr: &str) -> Option<Vec<Tok>> {
    let mut tokens = Vec::new();
    let chars: Vec<char> = expr.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        let c = chars[i];
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                tokens.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                tokens.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                tokens.push(Tok::Star);
                i += 1;
            }
            '/' => {
                tokens.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                tokens.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Tok::RParen);
                i += 1;
            }
            'p' | 'P' if i + 1 < chars.len() && (chars[i + 1] == 'i' || chars[i + 1] == 'I') => {
                tokens.push(Tok::Num(std::f64::consts::PI));
                i += 2;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_digit()
                        || chars[i] == '.'
                        || chars[i] == 'e'
                        || chars[i] == 'E'
                        || ((chars[i] == '+' || chars[i] == '-')
                            && i > start
                            && (chars[i - 1] == 'e' || chars[i - 1] == 'E')))
                {
                    i += 1;
                }
                let text: String = chars[start..i].iter().collect();
                tokens.push(Tok::Num(text.parse().ok()?));
            }
            _ => return None,
        }
    }
    Some(tokens)
}

fn parse_sum(tokens: &[Tok], pos: &mut usize, depth: usize) -> Option<f64> {
    let mut value = parse_product(tokens, pos, depth)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Tok::Plus => {
                *pos += 1;
                value += parse_product(tokens, pos, depth)?;
            }
            Tok::Minus => {
                *pos += 1;
                value -= parse_product(tokens, pos, depth)?;
            }
            _ => break,
        }
    }
    Some(value)
}

fn parse_product(tokens: &[Tok], pos: &mut usize, depth: usize) -> Option<f64> {
    let mut value = parse_atom(tokens, pos, depth)?;
    while *pos < tokens.len() {
        match tokens[*pos] {
            Tok::Star => {
                *pos += 1;
                value *= parse_atom(tokens, pos, depth)?;
            }
            Tok::Slash => {
                *pos += 1;
                let denom = parse_atom(tokens, pos, depth)?;
                value /= denom;
            }
            _ => break,
        }
    }
    Some(value)
}

/// Parses a number, a signed atom or a parenthesised sum; `depth` counts
/// the signs and parentheses already open around it.
fn parse_atom(tokens: &[Tok], pos: &mut usize, depth: usize) -> Option<f64> {
    let token = tokens.get(*pos)?;
    if let Tok::Num(v) = token {
        *pos += 1;
        return Some(*v);
    }
    if depth >= MAX_PARAM_DEPTH {
        return None;
    }
    match token {
        Tok::Minus => {
            *pos += 1;
            Some(-parse_atom(tokens, pos, depth + 1)?)
        }
        Tok::Plus => {
            *pos += 1;
            parse_atom(tokens, pos, depth + 1)
        }
        Tok::LParen => {
            *pos += 1;
            let value = parse_sum(tokens, pos, depth + 1)?;
            if tokens.get(*pos) == Some(&Tok::RParen) {
                *pos += 1;
                Some(value)
            } else {
                None
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_roundtrip() {
        let mut ghz = Circuit::new(3);
        ghz.h(0).cx(0, 1).cx(1, 2);
        let qasm = to_qasm(&ghz).unwrap();
        assert!(qasm.contains("qreg q[3];"));
        assert!(qasm.contains("cx q[0],q[1];"));
        let parsed = from_qasm(&qasm).unwrap();
        assert_eq!(parsed, ghz);
    }

    #[test]
    fn parses_the_paper_ghz_listing() {
        let source = r#"
            //GHZ circuit
            OPENQASM 2.0;
            include "qelib1.inc";
            qreg q[3];
            h q[0];
            cx q[0],q[1];
            cx q[1],q[2];
        "#;
        let circuit = from_qasm(source).unwrap();
        assert_eq!(circuit.num_qubits(), 3);
        assert_eq!(circuit.size(), 3);
        assert_eq!(circuit.gates()[0].kind, GateKind::H);
    }

    #[test]
    fn parses_parameter_expressions() {
        let source = "qreg q[1]; u3(pi/2, -pi/4, 3*pi/4) q[0]; rz(0.5) q[0]; u1(2*pi) q[0];";
        let circuit = from_qasm(source).unwrap();
        match circuit.gates()[0].kind {
            GateKind::U3(t, p, l) => {
                assert!((t - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
                assert!((p + std::f64::consts::FRAC_PI_4).abs() < 1e-12);
                assert!((l - 3.0 * std::f64::consts::FRAC_PI_4).abs() < 1e-12);
            }
            ref other => panic!("unexpected gate {other:?}"),
        }
        match circuit.gates()[2].kind {
            GateKind::U1(l) => assert!((l - 2.0 * std::f64::consts::PI).abs() < 1e-12),
            ref other => panic!("unexpected gate {other:?}"),
        }
    }

    #[test]
    fn broadcasts_register_operands() {
        let source = "qreg q[3]; creg c[3]; h q; barrier q[0],q[1],q[2]; measure q -> c;";
        let circuit = from_qasm(source).unwrap();
        let ops = circuit.count_ops();
        assert_eq!(ops.get("h"), Some(&3));
        assert_eq!(ops.get("barrier"), Some(&1));
        assert_eq!(ops.get("measure"), Some(&3));
    }

    #[test]
    fn measurement_and_barrier_roundtrip() {
        let mut c = Circuit::with_clbits(2, 2);
        c.h(0).cx(0, 1).barrier_all().measure(0, 0).measure(1, 1);
        let qasm = to_qasm(&c).unwrap();
        let parsed = from_qasm(&qasm).unwrap();
        assert_eq!(parsed, c);
    }

    #[test]
    fn rejects_unsupported_constructs() {
        assert!(matches!(from_qasm("qreg q[1]; if(c==1) x q[0];"), Err(QcError::Unsupported(_))));
        assert!(matches!(from_qasm("gate mygate a { h a; }"), Err(QcError::Unsupported(_))));
        let mut c = Circuit::with_clbits(1, 1);
        c.push(Gate::new(GateKind::X, vec![0]).with_classical_condition(0, true)).unwrap();
        assert!(to_qasm(&c).is_err());
    }

    #[test]
    fn reports_parse_errors_with_line_numbers() {
        // Gate errors name the line the gate was written on, like every
        // other parse error.
        for (source, expected) in [
            ("qreg q[2];\nnotagate q[0];", "parse error at line 2: unknown gate `notagate`"),
            ("qreg q[2];\ncx q[0],q[9];", "parse error at line 2: bad operand"),
            (
                "qreg q[2];\nh q[0];\n\ncx q[0],q[0];",
                "parse error at line 4: duplicate qubit operand 0",
            ),
            ("qreg q[2];\ncx q[0];", "parse error at line 2: gate cx expects 2 qubits, got 1"),
        ] {
            assert_eq!(from_qasm(source).unwrap_err().to_string(), expected, "{source:?}");
        }
    }

    #[test]
    fn unparameterised_gates_refuse_parameters() {
        for (source, gate, actual) in [
            ("qreg q[1];\nh(1.5) q[0];", "h", 1),
            ("qreg q[2];\ncx(3) q[0],q[1];", "cx", 1),
            ("qreg q[1];\nreset(1,2) q[0];", "reset", 2),
        ] {
            match from_qasm(source) {
                Err(QcError::Parse { line: 2, message }) => assert_eq!(
                    message,
                    format!("gate {gate} expects 0 parameters, got {actual}"),
                    "{source:?}"
                ),
                other => panic!("{source:?}: expected a parameter-count error, got {other:?}"),
            }
        }
        assert_eq!(
            GateKind::from_name("h", &[1.5]),
            Err(QcError::ParamCountMismatch { gate: "h".to_string(), expected: 0, actual: 1 })
        );
    }

    #[test]
    fn oversized_registers_are_refused_at_their_declaration() {
        let start = std::time::Instant::now();
        for source in [
            "qreg q[20000000]; h q;",
            "qreg q[3000000000]; h q[0];",
            "qreg a[1000]; qreg b[25]; h a;",
            "qreg q[2]; creg c[20000000]; measure q[0] -> c[0];",
            "qreg q[18446744073709551615]; qreg r[1];",
        ] {
            match from_qasm(source) {
                Err(QcError::Parse { line: 1, message }) => {
                    assert!(message.contains("ceiling"), "{source}: {message}")
                }
                other => panic!("{source}: expected a ceiling error, got {other:?}"),
            }
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(from_qasm("qreg a[1000]; qreg b[24];").unwrap().num_qubits(), MAX_QUBITS);
    }

    #[test]
    fn multiple_registers_are_flattened() {
        let source = "qreg a[2]; qreg b[2]; cx a[1], b[0]; h b[1];";
        let circuit = from_qasm(source).unwrap();
        assert_eq!(circuit.num_qubits(), 4);
        assert_eq!(circuit.gates()[0].qubits, vec![1, 2]);
        assert_eq!(circuit.gates()[1].qubits, vec![3]);
    }

    #[test]
    fn param_expression_evaluator() {
        assert!((eval_param("pi/2").unwrap() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((eval_param("-pi").unwrap() + std::f64::consts::PI).abs() < 1e-12);
        assert!((eval_param("(1+2)*pi").unwrap() - 3.0 * std::f64::consts::PI).abs() < 1e-12);
        assert!((eval_param("1.5e-3").unwrap() - 0.0015).abs() < 1e-15);
        assert!(eval_param("pi pi").is_err());
        assert!(eval_param("foo").is_err());
    }

    #[test]
    fn non_finite_parameters_are_refused_with_their_line() {
        for param in ["1e999", "pi/0", "0/0", "-1e999"] {
            let source = format!("qreg q[1];\nrz({param}) q[0];");
            assert_eq!(
                from_qasm(&source).unwrap_err().to_string(),
                "parse error at line 2: parameter expression is not a finite number",
                "{param}"
            );
        }
        // Finite extremes still parse and print back to themselves.
        let circuit = from_qasm("qreg q[1]; rz(1e300) q[0]; rz(-5e-324) q[0];").unwrap();
        assert_eq!(from_qasm(&to_qasm(&circuit).unwrap()).unwrap(), circuit);
    }

    #[test]
    fn a_wrong_parameter_count_says_parameters() {
        assert_eq!(
            from_qasm("qreg q[1]; u3(1,2) q[0];").unwrap_err().to_string(),
            "parse error at line 1: gate u3 expects 3 parameters, got 2"
        );
    }

    #[test]
    fn mismatched_broadcast_registers_and_reversed_brackets_are_errors() {
        for source in ["qreg q[2]; qreg r[3]; cx q,r;", "qreg q]2[;", "qreg q[2]; h q]0[;"] {
            assert!(matches!(from_qasm(source), Err(QcError::Parse { line: 1, .. })), "{source}");
        }
    }

    #[test]
    fn parenthesised_parameters_parse_to_their_value() {
        let circuit = from_qasm("qreg q[1]; rz((1+2)*pi) q[0]; u2((pi), -(1)) q[0];").unwrap();
        match circuit.gates()[0].kind {
            GateKind::RZ(theta) => assert!((theta - 3.0 * std::f64::consts::PI).abs() < 1e-12),
            ref other => panic!("unexpected gate {other:?}"),
        }
        match circuit.gates()[1].kind {
            GateKind::U2(phi, lam) => {
                assert!((phi - std::f64::consts::PI).abs() < 1e-12);
                assert!((lam + 1.0).abs() < 1e-12);
            }
            ref other => panic!("unexpected gate {other:?}"),
        }
    }

    #[test]
    fn deeply_nested_parameters_are_refused_without_recursing() {
        let depth = 100_000;
        let parens = format!("qreg q[1]; rz({}1{}) q[0];", "(".repeat(depth), ")".repeat(depth));
        let signs = format!("qreg q[1]; rz({}1) q[0];", "-".repeat(depth));
        let unclosed = format!("qreg q[1]; rz({}1) q[0];", "(".repeat(depth));
        for source in [&parens, &signs, &unclosed] {
            assert!(matches!(from_qasm(source), Err(QcError::Parse { line: 1, .. })));
        }
        // The cap itself still evaluates; one level more is refused.
        let at_cap = |n: usize| eval_param(&format!("{}1{}", "(".repeat(n), ")".repeat(n)));
        assert_eq!(at_cap(MAX_PARAM_DEPTH), Ok(1.0));
        assert!(at_cap(MAX_PARAM_DEPTH + 1).is_err());
        assert_eq!(eval_param(&format!("{}1", "-".repeat(MAX_PARAM_DEPTH))), Ok(1.0));
        assert!(eval_param(&format!("{}1", "+".repeat(MAX_PARAM_DEPTH + 1))).is_err());
    }
}
