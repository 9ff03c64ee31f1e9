//! BLIF (Berkeley Logic Interchange Format) reader and writer — the input
//! format the paper feeds to CUDD (§IV-B).
//!
//! The supported subset is combinational BLIF: `.model`, `.inputs`,
//! `.outputs`, `.names` (single-output covers with `0/1/-` cubes and a
//! constant on/off value) and `.end`. Latches and hierarchy are rejected
//! with a clear error.

use crate::ir::{GateOp, Network, Signal};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Problems encountered while parsing BLIF text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlifError {
    /// 1-based source line.
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for BlifError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BLIF error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for BlifError {}

struct NamesEntry {
    line: usize,
    inputs: Vec<String>,
    output: String,
    cubes: Vec<String>,
    value: bool,
}

/// Parse a BLIF model into a [`Network`].
///
/// # Errors
/// Returns a [`BlifError`] for syntax problems, unsupported constructs
/// (latches, subcircuits), combinational cycles or undriven signals.
pub fn parse_blif(text: &str) -> Result<Network, BlifError> {
    let err = |line: usize, m: &str| BlifError {
        line,
        message: m.to_string(),
    };
    // Join continuation lines, strip comments.
    let mut logical: Vec<(usize, String)> = Vec::new();
    let mut pending = String::new();
    let mut pending_line = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_no = i + 1;
        let no_comment = match raw.find('#') {
            Some(p) => &raw[..p],
            None => raw,
        };
        let mut chunk = no_comment.trim_end().to_string();
        let continued = chunk.ends_with('\\');
        if continued {
            chunk.pop();
        }
        if pending.is_empty() {
            pending_line = line_no;
        }
        pending.push_str(&chunk);
        pending.push(' ');
        if !continued {
            let s = pending.trim().to_string();
            if !s.is_empty() {
                logical.push((pending_line, s));
            }
            pending.clear();
        }
    }

    let mut model_name = String::from("top");
    let mut inputs: Vec<String> = Vec::new();
    let mut input_names: HashSet<String> = HashSet::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut names: Vec<NamesEntry> = Vec::new();
    let mut current: Option<NamesEntry> = None;

    for (line, s) in logical {
        let tokens: Vec<&str> = s.split_whitespace().collect();
        if tokens.is_empty() {
            continue;
        }
        if tokens[0].starts_with('.') {
            if let Some(entry) = current.take() {
                names.push(entry);
            }
            match tokens[0] {
                ".model" => {
                    if let Some(n) = tokens.get(1) {
                        model_name = (*n).to_string();
                    }
                }
                ".inputs" => {
                    for t in &tokens[1..] {
                        if !input_names.insert(t.to_string()) {
                            return Err(err(line, &format!("input {t} declared twice")));
                        }
                        inputs.push(t.to_string());
                    }
                }
                ".outputs" => outputs.extend(tokens[1..].iter().map(|t| t.to_string())),
                ".names" => {
                    if tokens.len() < 2 {
                        return Err(err(line, ".names needs at least an output"));
                    }
                    let output = tokens[tokens.len() - 1].to_string();
                    let ins = tokens[1..tokens.len() - 1]
                        .iter()
                        .map(|t| t.to_string())
                        .collect();
                    current = Some(NamesEntry {
                        line,
                        inputs: ins,
                        output,
                        cubes: Vec::new(),
                        value: true,
                    });
                }
                ".end" => {}
                ".latch" | ".subckt" | ".gate" | ".mlatch" => {
                    return Err(err(
                        line,
                        "only combinational single-model BLIF is supported",
                    ))
                }
                _ => return Err(err(line, &format!("unknown directive {}", tokens[0]))),
            }
        } else {
            // A cover row for the open .names.
            let entry = current
                .as_mut()
                .ok_or_else(|| err(line, "cube outside .names"))?;
            let (mask, value) = if entry.inputs.is_empty() {
                ("".to_string(), tokens[0])
            } else {
                if tokens.len() != 2 {
                    return Err(err(line, "cube must be <mask> <value>"));
                }
                (tokens[0].to_string(), tokens[1])
            };
            if mask.len() != entry.inputs.len() {
                return Err(err(line, "cube width does not match input count"));
            }
            if mask.chars().any(|c| !matches!(c, '0' | '1' | '-')) {
                return Err(err(line, "cube characters must be 0/1/-"));
            }
            let v = match value {
                "1" => true,
                "0" => false,
                _ => return Err(err(line, "cover value must be 0 or 1")),
            };
            if !entry.cubes.is_empty() && v != entry.value {
                return Err(err(line, "mixed cover polarities are not supported"));
            }
            entry.value = v;
            entry.cubes.push(mask);
        }
    }
    if let Some(entry) = current.take() {
        names.push(entry);
    }

    // Topologically order the .names blocks.
    let mut producer: HashMap<&str, usize> = HashMap::new();
    for (i, e) in names.iter().enumerate() {
        if producer.insert(e.output.as_str(), i).is_some() {
            return Err(err(e.line, &format!("{} driven twice", e.output)));
        }
    }
    let mut order: Vec<usize> = Vec::with_capacity(names.len());
    let mut state = vec![0u8; names.len()]; // 0 new, 1 visiting, 2 done
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..names.len() {
        if state[start] != 0 {
            continue;
        }
        stack.push((start, 0));
        state[start] = 1;
        while let Some(&mut (node, ref mut dep)) = stack.last_mut() {
            let entry = &names[node];
            if *dep < entry.inputs.len() {
                let input = &entry.inputs[*dep];
                *dep += 1;
                if let Some(&p) = producer.get(input.as_str()) {
                    match state[p] {
                        0 => {
                            state[p] = 1;
                            stack.push((p, 0));
                        }
                        1 => return Err(err(entry.line, "combinational cycle")),
                        _ => {}
                    }
                }
            } else {
                state[node] = 2;
                order.push(node);
                stack.pop();
            }
        }
    }

    // Emit the network. Reserve every cover's output name first so that
    // intermediate gates never steal a name used later in the file.
    let mut net = Network::new(&model_name);
    for name in &inputs {
        net.add_input(name);
    }
    for e in &names {
        net.reserve_name(&e.output);
    }
    for &idx in &order {
        let e = &names[idx];
        // Covers were checked against each other above; this catches a
        // cover driving a primary input.
        if net.signal_by_name(&e.output).is_some() {
            return Err(err(e.line, &format!("{} driven twice", e.output)));
        }
        let mut ins: Vec<Signal> = Vec::with_capacity(e.inputs.len());
        for name in &e.inputs {
            match net.signal_by_name(name) {
                Some(s) => ins.push(s),
                None => return Err(err(e.line, &format!("undriven signal {name}"))),
            }
        }
        let cover = emit_cover(&mut net, &ins, &e.cubes, e.value);
        let out = net.add_named_gate(&e.output, GateOp::Buf, &[cover]);
        let _ = out;
    }
    for name in &outputs {
        match net.signal_by_name(name) {
            Some(s) => net.set_output(name, s),
            None => {
                return Err(BlifError {
                    line: 0,
                    message: format!("output {name} is never driven"),
                })
            }
        }
    }
    net.check().map_err(|e| BlifError {
        line: 0,
        message: e.to_string(),
    })?;
    Ok(net)
}

/// Build the sum-of-cubes for one `.names` cover; `value == false` means
/// the rows describe the off-set.
fn emit_cover(net: &mut Network, ins: &[Signal], cubes: &[String], value: bool) -> Signal {
    if cubes.is_empty() {
        // Empty cover: constant 0 when value=1 convention, constant 0
        // on-set — i.e. the constant `!value`… BLIF defines an empty cover
        // as constant 0; a single empty cube line "1" is constant 1.
        return net.add_gate(GateOp::Const0, &[]);
    }
    let mut terms: Vec<Signal> = Vec::with_capacity(cubes.len());
    for cube in cubes {
        let mut lits: Vec<Signal> = Vec::new();
        for (i, ch) in cube.chars().enumerate() {
            match ch {
                '1' => lits.push(ins[i]),
                '0' => lits.push(net.add_gate(GateOp::Not, &[ins[i]])),
                _ => {}
            }
        }
        let term = match lits.len() {
            0 => net.add_gate(GateOp::Const1, &[]),
            1 => lits[0],
            _ => net.add_gate(GateOp::And, &lits),
        };
        terms.push(term);
    }
    let on = match terms.len() {
        1 => terms[0],
        _ => net.add_gate(GateOp::Or, &terms),
    };
    if value {
        on
    } else {
        net.add_gate(GateOp::Not, &[on])
    }
}

/// Serialize a [`Network`] as BLIF.
///
/// Every gate becomes a `.names` cover; `Maj` and `Mux` expand to their
/// standard covers.
#[must_use]
pub fn write_blif(net: &Network) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, ".model {}", net.name());
    let in_names: Vec<&str> = net.inputs().iter().map(|&s| net.signal_name(s)).collect();
    let _ = writeln!(out, ".inputs {}", in_names.join(" "));
    let out_names: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let _ = writeln!(out, ".outputs {}", out_names.join(" "));

    for g in net.gates() {
        let ins: Vec<&str> = g.inputs.iter().map(|&s| net.signal_name(s)).collect();
        let o = net.signal_name(g.output);
        let _ = writeln!(out, ".names {} {}", ins.join(" "), o);
        let n = ins.len();
        match g.op {
            GateOp::Const0 => {}
            GateOp::Const1 => {
                let _ = writeln!(out, "1");
            }
            GateOp::Buf => {
                let _ = writeln!(out, "1 1");
            }
            GateOp::Not => {
                let _ = writeln!(out, "0 1");
            }
            GateOp::And => {
                let _ = writeln!(out, "{} 1", "1".repeat(n));
            }
            GateOp::Nand => {
                for i in 0..n {
                    let mut cube = vec!['-'; n];
                    cube[i] = '0';
                    let _ = writeln!(out, "{} 1", cube.iter().collect::<String>());
                }
            }
            GateOp::Or => {
                for i in 0..n {
                    let mut cube = vec!['-'; n];
                    cube[i] = '1';
                    let _ = writeln!(out, "{} 1", cube.iter().collect::<String>());
                }
            }
            GateOp::Nor => {
                let _ = writeln!(out, "{} 1", "0".repeat(n));
            }
            GateOp::Xor | GateOp::Xnor => {
                assert!(n <= 16, "XOR cover explosion guard");
                let want_odd = g.op == GateOp::Xor;
                for m in 0..(1u32 << n) {
                    let ones = m.count_ones() as usize;
                    if (ones % 2 == 1) == want_odd {
                        let cube: String = (0..n)
                            .map(|i| if (m >> i) & 1 == 1 { '1' } else { '0' })
                            .collect();
                        let _ = writeln!(out, "{cube} 1");
                    }
                }
            }
            GateOp::Maj => {
                let _ = writeln!(out, "11- 1");
                let _ = writeln!(out, "1-1 1");
                let _ = writeln!(out, "-11 1");
            }
            GateOp::Mux => {
                let _ = writeln!(out, "11- 1");
                let _ = writeln!(out, "0-1 1");
            }
        }
    }
    // Output ports that are not directly the driven signal name need a
    // forwarding buffer.
    for (port, s) in net.outputs() {
        if port != net.signal_name(*s) {
            let _ = writeln!(out, ".names {} {}", net.signal_name(*s), port);
            let _ = writeln!(out, "1 1");
        }
    }
    let _ = writeln!(out, ".end");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::GateOp;

    #[test]
    fn parse_simple_model() {
        let text = "\
# a comment
.model test
.inputs a b c
.outputs y
.names a b t
11 1
.names t c y
1- 1
-1 1
.end
";
        let net = parse_blif(text).unwrap();
        assert_eq!(net.name(), "test");
        assert_eq!(net.num_inputs(), 3);
        assert_eq!(net.num_outputs(), 1);
        // y = (a & b) | c
        for m in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let y = net.simulate(&v)[0];
            assert_eq!(y, (v[0] && v[1]) || v[2], "{v:?}");
        }
    }

    #[test]
    fn parse_offset_cover_and_constants() {
        let text = "\
.model t
.inputs a b
.outputs y k0 k1
.names a b y
11 0
.names k0
.names k1
1
.end
";
        let net = parse_blif(text).unwrap();
        for m in 0..4u32 {
            let v: Vec<bool> = (0..2).map(|i| (m >> i) & 1 == 1).collect();
            let o = net.simulate(&v);
            assert_eq!(o[0], !(v[0] && v[1]), "nand via off-set");
            assert!(!o[1], "empty cover is constant 0");
            assert!(o[2], "single 1 row is constant 1");
        }
    }

    #[test]
    fn parse_accepts_out_of_order_names() {
        let text = "\
.model ooo
.inputs a b
.outputs y
.names t1 t2 y
11 1
.names a t1
0 1
.names b t2
0 1
.end
";
        let net = parse_blif(text).unwrap();
        let v = net.simulate(&[false, false]);
        assert!(v[0], "!a & !b at 00");
    }

    #[test]
    fn rejects_latches_and_cycles() {
        assert!(parse_blif(".model x\n.latch a b\n.end").is_err());
        let cyc = "\
.model c
.inputs a
.outputs y
.names y a y
11 1
.end
";
        assert!(parse_blif(cyc).is_err());
    }

    #[test]
    fn rejects_a_duplicate_input_naming_its_line() {
        let text = ".model m\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end\n";
        let e = parse_blif(text).unwrap_err();
        assert_eq!(e.line, 2, "{e}");
        assert!(e.message.contains("input a declared twice"), "{e}");
        let split = ".model m\n.inputs a\n.inputs b a\n.outputs y\n.names a y\n1 1\n.end\n";
        assert_eq!(parse_blif(split).unwrap_err().line, 3);
    }

    #[test]
    fn rejects_a_cover_driving_an_input() {
        let text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.names a\n1\n.end\n";
        let e = parse_blif(text).unwrap_err();
        assert_eq!(e.line, 6, "{e}");
        assert!(e.message.contains("a driven twice"), "{e}");
    }

    #[test]
    fn roundtrip_all_gate_ops() {
        let mut net = Network::new("rt");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let outs = vec![
            net.add_gate(GateOp::And, &[a, b]),
            net.add_gate(GateOp::Or, &[a, b, c]),
            net.add_gate(GateOp::Nand, &[a, c]),
            net.add_gate(GateOp::Nor, &[a, b]),
            net.add_gate(GateOp::Xor, &[a, b, c]),
            net.add_gate(GateOp::Xnor, &[a, b]),
            net.add_gate(GateOp::Not, &[c]),
            net.add_gate(GateOp::Buf, &[a]),
            net.add_gate(GateOp::Maj, &[a, b, c]),
            net.add_gate(GateOp::Mux, &[a, b, c]),
            net.add_gate(GateOp::Const1, &[]),
            net.add_gate(GateOp::Const0, &[]),
        ];
        for (i, s) in outs.iter().enumerate() {
            net.set_output(&format!("o{i}"), *s);
        }
        net.check().unwrap();
        let text = write_blif(&net);
        let parsed = parse_blif(&text).unwrap();
        assert_eq!(parsed.num_inputs(), 3);
        assert_eq!(parsed.num_outputs(), net.num_outputs());
        for m in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(parsed.simulate(&v), net.simulate(&v), "vector {v:?}");
        }
    }
}
