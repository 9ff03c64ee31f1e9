//! Flattened structural-Verilog reader and writer — the input format of the
//! BBDD package in the paper's experimental flow (§IV-B: "a Verilog
//! description of a combinational logic network, flattened onto primitive
//! Boolean operations (XOR, AND, OR, INV, BUF)") and its output format for
//! built BBDDs.
//!
//! Supported subset: one module; scalar `input` / `output` / `wire`
//! declarations; gate primitives `and, or, nand, nor, xor, xnor, buf, not`
//! (n-ary where Verilog allows); and `assign` statements over `~ & ^ |`,
//! XNOR (`~^` / `^~`), the conditional operator and the literals `1'b0` /
//! `1'b1`. Buses are not supported — generators emit flattened bit names.

use crate::ir::{GateOp, Network, Signal};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Problems encountered while parsing Verilog text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerilogError {
    /// Approximate source line (1-based).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for VerilogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Verilog error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for VerilogError {}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Serialize a [`Network`] as flattened structural Verilog.
#[must_use]
pub fn write_verilog(net: &Network) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let ins: Vec<&str> = net.inputs().iter().map(|&s| net.signal_name(s)).collect();
    let outs: Vec<&str> = net.outputs().iter().map(|(n, _)| n.as_str()).collect();
    let mut ports: Vec<&str> = ins.clone();
    ports.extend(outs.iter().copied());
    let _ = writeln!(
        out,
        "module {} ({});",
        sanitize(net.name()),
        ports.join(", ")
    );
    for i in &ins {
        let _ = writeln!(out, "  input {i};");
    }
    for o in &outs {
        let _ = writeln!(out, "  output {o};");
    }
    let output_ports: std::collections::HashSet<&str> = outs.iter().copied().collect();
    for g in net.gates() {
        let name = net.signal_name(g.output);
        if !output_ports.contains(name) {
            let _ = writeln!(out, "  wire {name};");
        }
    }
    for (idx, g) in net.gates().iter().enumerate() {
        let o = net.signal_name(g.output);
        let ins: Vec<&str> = g.inputs.iter().map(|&s| net.signal_name(s)).collect();
        match g.op {
            GateOp::Const0 => {
                let _ = writeln!(out, "  assign {o} = 1'b0;");
            }
            GateOp::Const1 => {
                let _ = writeln!(out, "  assign {o} = 1'b1;");
            }
            GateOp::Buf => {
                let _ = writeln!(out, "  buf g{idx} ({o}, {});", ins[0]);
            }
            GateOp::Not => {
                let _ = writeln!(out, "  not g{idx} ({o}, {});", ins[0]);
            }
            GateOp::And | GateOp::Or | GateOp::Nand | GateOp::Nor | GateOp::Xor | GateOp::Xnor => {
                let prim = match g.op {
                    GateOp::And => "and",
                    GateOp::Or => "or",
                    GateOp::Nand => "nand",
                    GateOp::Nor => "nor",
                    GateOp::Xor => "xor",
                    GateOp::Xnor => "xnor",
                    _ => unreachable!(),
                };
                let _ = writeln!(out, "  {prim} g{idx} ({o}, {});", ins.join(", "));
            }
            GateOp::Maj => {
                let (a, b, c) = (ins[0], ins[1], ins[2]);
                let _ = writeln!(
                    out,
                    "  assign {o} = ({a} & {b}) | ({b} & {c}) | ({a} & {c});"
                );
            }
            GateOp::Mux => {
                let (s, a, b) = (ins[0], ins[1], ins[2]);
                let _ = writeln!(out, "  assign {o} = {s} ? {a} : {b};");
            }
        }
    }
    for (port, s) in net.outputs() {
        let driver = net.signal_name(*s);
        if port != driver {
            let _ = writeln!(out, "  buf gout_{port} ({port}, {driver});");
        }
    }
    let _ = writeln!(out, "endmodule");
    out
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| {
            if c.is_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if s.is_empty() || s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, 'm');
    }
    s
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    LitZero,
    LitOne,
    Sym(char),
    /// `~^` or `^~`
    Xnor,
    Module,
    Endmodule,
    Input,
    Output,
    Wire,
    Assign,
    Gate(GateOp),
}

fn lex(text: &str) -> Result<Vec<(usize, Tok)>, VerilogError> {
    let mut toks = Vec::new();
    let mut line = 1usize;
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < bytes.len() {
            if bytes[i + 1] == '/' {
                while i < bytes.len() && bytes[i] != '\n' {
                    i += 1;
                }
                continue;
            }
            if bytes[i + 1] == '*' {
                i += 2;
                while i + 1 < bytes.len() && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                i += 2;
                continue;
            }
        }
        if c.is_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && (bytes[i].is_alphanumeric() || bytes[i] == '_' || bytes[i] == '$')
            {
                i += 1;
            }
            let word: String = bytes[start..i].iter().collect();
            // Allow bit-select style names like a[3] as atomic identifiers.
            if i < bytes.len() && bytes[i] == '[' {
                let mut j = i + 1;
                while j < bytes.len() && bytes[j].is_ascii_digit() {
                    j += 1;
                }
                if j < bytes.len() && bytes[j] == ']' {
                    let full: String = bytes[start..=j].iter().collect();
                    i = j + 1;
                    toks.push((line, Tok::Ident(full)));
                    continue;
                }
            }
            let tok = match word.as_str() {
                "module" => Tok::Module,
                "endmodule" => Tok::Endmodule,
                "input" => Tok::Input,
                "output" => Tok::Output,
                "wire" => Tok::Wire,
                "assign" => Tok::Assign,
                "and" => Tok::Gate(GateOp::And),
                "or" => Tok::Gate(GateOp::Or),
                "nand" => Tok::Gate(GateOp::Nand),
                "nor" => Tok::Gate(GateOp::Nor),
                "xor" => Tok::Gate(GateOp::Xor),
                "xnor" => Tok::Gate(GateOp::Xnor),
                "buf" => Tok::Gate(GateOp::Buf),
                "not" => Tok::Gate(GateOp::Not),
                _ => Tok::Ident(word),
            };
            toks.push((line, tok));
            continue;
        }
        if c.is_ascii_digit() {
            // Only 1'b0 / 1'b1 literals are supported.
            let start = i;
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '\'') {
                i += 1;
            }
            let word: String = bytes[start..i].iter().collect();
            match word.as_str() {
                "1'b0" => toks.push((line, Tok::LitZero)),
                "1'b1" => toks.push((line, Tok::LitOne)),
                _ => {
                    return Err(VerilogError {
                        line,
                        message: format!("unsupported literal {word}"),
                    })
                }
            }
            continue;
        }
        if (c == '~' && i + 1 < bytes.len() && bytes[i + 1] == '^')
            || (c == '^' && i + 1 < bytes.len() && bytes[i + 1] == '~')
        {
            toks.push((line, Tok::Xnor));
            i += 2;
            continue;
        }
        if "()&|^~?:,;=".contains(c) {
            toks.push((line, Tok::Sym(c)));
            i += 1;
            continue;
        }
        return Err(VerilogError {
            line,
            message: format!("unexpected character {c:?}"),
        });
    }
    Ok(toks)
}

/// An expression tree prior to network emission.
///
/// A run of one precedence's binary operators (`a & b & c`) is one flat
/// [`Expr::Chain`]: it emits the gates a left-deep tree would, but walks
/// over it loop instead of recursing, so its length costs no stack.
#[derive(Debug, Clone)]
enum Expr {
    Ref(String),
    Const(bool),
    Not(Box<Expr>),
    Nary(GateOp, Vec<Expr>),
    Mux(Box<Expr>, Box<Expr>, Box<Expr>),
    /// `((first op₁ e₁) op₂ e₂) …`
    Chain(Box<Expr>, Vec<(GateOp, Expr)>),
}

impl Expr {
    fn free_names<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Ref(n) => out.push(n),
            Expr::Const(_) => {}
            Expr::Not(e) => e.free_names(out),
            Expr::Nary(_, es) => {
                for e in es {
                    e.free_names(out);
                }
            }
            Expr::Mux(s, a, b) => {
                s.free_names(out);
                a.free_names(out);
                b.free_names(out);
            }
            Expr::Chain(first, rest) => {
                first.free_names(out);
                for (_, e) in rest {
                    e.free_names(out);
                }
            }
        }
    }
}

/// Deepest expression nesting (parentheses, `~` and `?:` branches) the
/// Verilog reader accepts; deeper input is an error instead of a stack
/// overflow in the recursive-descent parser.
pub const MAX_EXPR_DEPTH: usize = 256;

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    /// Current expression nesting (see [`MAX_EXPR_DEPTH`]).
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |(l, _)| *l)
    }

    fn err(&self, m: &str) -> VerilogError {
        VerilogError {
            line: self.line(),
            message: m.to_string(),
        }
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn expect_sym(&mut self, c: char) -> Result<(), VerilogError> {
        match self.bump() {
            Some(Tok::Sym(x)) if x == c => Ok(()),
            _ => Err(self.err(&format!("expected {c:?}"))),
        }
    }

    fn expect_ident(&mut self) -> Result<String, VerilogError> {
        match self.bump() {
            Some(Tok::Ident(s)) => Ok(s),
            _ => Err(self.err("expected identifier")),
        }
    }

    /// Run `f` one expression level deeper, failing past
    /// [`MAX_EXPR_DEPTH`].
    fn nested(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<Expr, VerilogError>,
    ) -> Result<Expr, VerilogError> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(self.err(&format!(
                "expression nested deeper than {MAX_EXPR_DEPTH} levels"
            )));
        }
        self.depth += 1;
        let e = f(self);
        self.depth -= 1;
        e
    }

    // expr := ternary ; ternary := or ('?' expr ':' expr)?
    fn expr(&mut self) -> Result<Expr, VerilogError> {
        let cond = self.or_expr()?;
        if matches!(self.peek(), Some(Tok::Sym('?'))) {
            self.bump();
            let a = self.nested(Self::expr)?;
            self.expect_sym(':')?;
            let b = self.nested(Self::expr)?;
            return Ok(Expr::Mux(Box::new(cond), Box::new(a), Box::new(b)));
        }
        Ok(cond)
    }

    fn or_expr(&mut self) -> Result<Expr, VerilogError> {
        self.chain(Self::xor_expr, |t| {
            matches!(t, Tok::Sym('|')).then_some(GateOp::Or)
        })
    }

    fn xor_expr(&mut self) -> Result<Expr, VerilogError> {
        self.chain(Self::and_expr, |t| match t {
            Tok::Sym('^') => Some(GateOp::Xor),
            Tok::Xnor => Some(GateOp::Xnor),
            _ => None,
        })
    }

    fn and_expr(&mut self) -> Result<Expr, VerilogError> {
        self.chain(Self::unary, |t| {
            matches!(t, Tok::Sym('&')).then_some(GateOp::And)
        })
    }

    /// One precedence level: `operand (op operand)*`, left-associative,
    /// as a flat [`Expr::Chain`].
    fn chain(
        &mut self,
        operand: fn(&mut Self) -> Result<Expr, VerilogError>,
        op_of: fn(&Tok) -> Option<GateOp>,
    ) -> Result<Expr, VerilogError> {
        let first = operand(self)?;
        let mut rest = Vec::new();
        while let Some(op) = self.peek().and_then(op_of) {
            self.bump();
            rest.push((op, operand(self)?));
        }
        Ok(if rest.is_empty() {
            first
        } else {
            Expr::Chain(Box::new(first), rest)
        })
    }

    fn unary(&mut self) -> Result<Expr, VerilogError> {
        match self.peek() {
            Some(Tok::Sym('~')) => {
                self.bump();
                Ok(Expr::Not(Box::new(self.nested(Self::unary)?)))
            }
            Some(Tok::Sym('(')) => {
                self.bump();
                let e = self.nested(Self::expr)?;
                self.expect_sym(')')?;
                Ok(e)
            }
            Some(Tok::LitZero) => {
                self.bump();
                Ok(Expr::Const(false))
            }
            Some(Tok::LitOne) => {
                self.bump();
                Ok(Expr::Const(true))
            }
            Some(Tok::Ident(_)) => {
                let n = self.expect_ident()?;
                Ok(Expr::Ref(n))
            }
            _ => Err(self.err("expected expression")),
        }
    }
}

struct Def {
    line: usize,
    output: String,
    expr: Expr,
}

/// Parse one flattened structural-Verilog module into a [`Network`].
///
/// # Errors
/// Returns a [`VerilogError`] for unsupported constructs, syntax problems,
/// undriven signals or combinational cycles.
pub fn parse_verilog(text: &str) -> Result<Network, VerilogError> {
    let toks = lex(text)?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };

    // module name ( ports ) ;
    match p.bump() {
        Some(Tok::Module) => {}
        _ => {
            return Err(VerilogError {
                line: 1,
                message: "expected module".into(),
            })
        }
    }
    let name = p.expect_ident()?;
    p.expect_sym('(')?;
    while !matches!(p.peek(), Some(Tok::Sym(')'))) {
        match p.bump() {
            Some(Tok::Ident(_)) | Some(Tok::Sym(',')) => {}
            Some(Tok::Input) | Some(Tok::Output) | Some(Tok::Wire) => {
                return Err(p.err("ANSI-style port declarations are not supported"))
            }
            _ => return Err(p.err("malformed port list")),
        }
    }
    p.expect_sym(')')?;
    p.expect_sym(';')?;

    let mut inputs: Vec<String> = Vec::new();
    let mut input_names: HashSet<String> = HashSet::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut defs: Vec<Def> = Vec::new();

    loop {
        let line = p.line();
        match p.bump() {
            Some(Tok::Endmodule) => break,
            Some(Tok::Input) | Some(Tok::Output) | Some(Tok::Wire) => {
                let kind = p.toks[p.pos - 1].1.clone();
                loop {
                    let at = p.line();
                    match p.bump() {
                        Some(Tok::Ident(n)) => match kind {
                            Tok::Input if !input_names.insert(n.clone()) => {
                                return Err(VerilogError {
                                    line: at,
                                    message: format!("input {n} declared twice"),
                                })
                            }
                            Tok::Input => inputs.push(n),
                            Tok::Output => outputs.push(n),
                            _ => {}
                        },
                        Some(Tok::Sym('[')) | Some(Tok::Sym(']')) => {
                            return Err(p.err("bus declarations are not supported"))
                        }
                        _ => return Err(p.err("expected signal name")),
                    }
                    match p.bump() {
                        Some(Tok::Sym(',')) => continue,
                        Some(Tok::Sym(';')) => break,
                        _ => return Err(p.err("expected , or ;")),
                    }
                }
            }
            Some(Tok::Assign) => {
                let out = p.expect_ident()?;
                p.expect_sym('=')?;
                let e = p.expr()?;
                p.expect_sym(';')?;
                defs.push(Def {
                    line,
                    output: out,
                    expr: e,
                });
            }
            Some(Tok::Gate(op)) => {
                // optional instance name
                if matches!(p.peek(), Some(Tok::Ident(_))) {
                    let _ = p.bump();
                }
                p.expect_sym('(')?;
                let out = p.expect_ident()?;
                let mut ins: Vec<Expr> = Vec::new();
                while matches!(p.peek(), Some(Tok::Sym(','))) {
                    p.bump();
                    ins.push(p.expr()?);
                }
                p.expect_sym(')')?;
                p.expect_sym(';')?;
                let expr = match op {
                    GateOp::Buf => ins
                        .first()
                        .cloned()
                        .ok_or_else(|| p.err("buf needs one input"))?,
                    GateOp::Not => Expr::Not(Box::new(
                        ins.first()
                            .cloned()
                            .ok_or_else(|| p.err("not needs one input"))?,
                    )),
                    _ if ins.is_empty() => {
                        return Err(VerilogError {
                            line,
                            message: format!(
                                "{} needs at least one input",
                                format!("{op:?}").to_lowercase()
                            ),
                        })
                    }
                    _ => Expr::Nary(op, ins),
                };
                defs.push(Def {
                    line,
                    output: out,
                    expr,
                });
            }
            Some(other) => {
                return Err(VerilogError {
                    line,
                    message: format!("unexpected token {other:?}"),
                })
            }
            None => {
                return Err(VerilogError {
                    line,
                    message: "missing endmodule".into(),
                })
            }
        }
    }

    // Topological order over definitions.
    let mut producer: HashMap<&str, usize> = HashMap::new();
    for (i, d) in defs.iter().enumerate() {
        if producer.insert(d.output.as_str(), i).is_some() {
            return Err(VerilogError {
                line: d.line,
                message: format!("{} driven twice", d.output),
            });
        }
    }
    let free: Vec<Vec<&str>> = defs
        .iter()
        .map(|d| {
            let mut names = Vec::new();
            d.expr.free_names(&mut names);
            names
        })
        .collect();
    let mut order: Vec<usize> = Vec::with_capacity(defs.len());
    let mut state = vec![0u8; defs.len()];
    for start in 0..defs.len() {
        if state[start] != 0 {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        state[start] = 1;
        while let Some(&mut (node, ref mut dep)) = stack.last_mut() {
            let names = &free[node];
            if *dep < names.len() {
                let nm = names[*dep];
                *dep += 1;
                if let Some(&pr) = producer.get(nm) {
                    match state[pr] {
                        0 => {
                            state[pr] = 1;
                            stack.push((pr, 0));
                        }
                        1 => {
                            return Err(VerilogError {
                                line: defs[node].line,
                                message: "combinational cycle".into(),
                            })
                        }
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

    let mut net = Network::new(&name);
    for n in &inputs {
        net.add_input(n);
    }
    for d in &defs {
        net.reserve_name(&d.output);
    }
    for &idx in &order {
        let d = &defs[idx];
        let sig = emit_expr(&mut net, &d.expr, d.line)?;
        // Bind the definition's name: a Buf keeps the declared name alive.
        if net.signal_by_name(&d.output).is_some() {
            return Err(VerilogError {
                line: d.line,
                message: format!("{} driven twice", d.output),
            });
        }
        net.add_named_gate(&d.output, GateOp::Buf, &[sig]);
    }
    for o in &outputs {
        match net.signal_by_name(o) {
            Some(s) => net.set_output(o, s),
            None => {
                return Err(VerilogError {
                    line: 0,
                    message: format!("output {o} is never driven"),
                })
            }
        }
    }
    net.check().map_err(|e| VerilogError {
        line: 0,
        message: e.to_string(),
    })?;
    Ok(net)
}

fn emit_expr(net: &mut Network, e: &Expr, line: usize) -> Result<Signal, VerilogError> {
    match e {
        Expr::Ref(n) => net.signal_by_name(n).ok_or_else(|| VerilogError {
            line,
            message: format!("undriven signal {n}"),
        }),
        Expr::Const(b) => Ok(net.add_gate(if *b { GateOp::Const1 } else { GateOp::Const0 }, &[])),
        Expr::Not(inner) => {
            let s = emit_expr(net, inner, line)?;
            Ok(net.add_gate(GateOp::Not, &[s]))
        }
        Expr::Nary(op, es) => {
            let mut sigs = Vec::with_capacity(es.len());
            for sub in es {
                sigs.push(emit_expr(net, sub, line)?);
            }
            Ok(net.add_gate(*op, &sigs))
        }
        Expr::Mux(s, a, b) => {
            let ss = emit_expr(net, s, line)?;
            let aa = emit_expr(net, a, line)?;
            let bb = emit_expr(net, b, line)?;
            Ok(net.add_gate(GateOp::Mux, &[ss, aa, bb]))
        }
        Expr::Chain(first, rest) => {
            let mut acc = emit_expr(net, first, line)?;
            for (op, e) in rest {
                let s = emit_expr(net, e, line)?;
                acc = net.add_gate(*op, &[acc, s]);
            }
            Ok(acc)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assign_module(expr: &str) -> String {
        format!("module m (a, y);\n  input a;\n  output y;\n  assign y = {expr};\nendmodule\n")
    }

    #[test]
    fn long_operator_chains_parse_and_build() {
        use crate::build::build_network;
        use ddcore::api::BooleanFunction;
        let n = 100_000;
        let expr = format!("{}a", "a & ".repeat(n - 1));
        let net = parse_verilog(&assign_module(&expr)).unwrap();
        assert_eq!(net.simulate(&[true]), vec![true]);
        assert_eq!(net.simulate(&[false]), vec![false]);
        let mgr = bbdd::BbddManager::with_vars(1);
        let outs = build_network(&mgr, &net);
        assert_eq!(outs[0].sat_count(), 1);
        // Mixed operators of one precedence fold left: each `^ a ~^ a`
        // negates what came before, and the count of pairs is even.
        let mixed = format!("a{}", " ^ a ~^ a".repeat(n / 2));
        let net = parse_verilog(&assign_module(&mixed)).unwrap();
        assert_eq!(net.simulate(&[true]), vec![true]);
        assert_eq!(net.simulate(&[false]), vec![false]);
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let d = MAX_EXPR_DEPTH;
        let parens = format!("{}a{}", "(".repeat(d), ")".repeat(d));
        let net = parse_verilog(&assign_module(&parens)).unwrap();
        assert_eq!(net.simulate(&[true]), vec![true]);
        let nots = format!("{}a", "~".repeat(d));
        let net = parse_verilog(&assign_module(&nots)).unwrap();
        assert_eq!(
            net.simulate(&[true]),
            vec![d.is_multiple_of(2)],
            "an even count of ~ cancels"
        );
    }

    /// Expressions nested 100 k deep used to overflow the parser's stack
    /// and abort the process; now they are a parse error naming the cap.
    #[test]
    fn deep_nesting_is_an_error_not_a_crash() {
        let n = 100_000;
        for expr in [
            format!("{}a{}", "(".repeat(n), ")".repeat(n)),
            format!("{}a", "~".repeat(n)),
            format!("{}a", "a ? ".repeat(n)) + &" : a".repeat(n),
        ] {
            let err = parse_verilog(&assign_module(&expr)).unwrap_err();
            assert!(
                err.message.contains(&MAX_EXPR_DEPTH.to_string()),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn parse_gate_primitives() {
        let src = "\
module m (a, b, c, y);
  input a; input b; input c;
  output y;
  wire t1, t2;
  xor g0 (t1, a, b);
  and g1 (t2, t1, c);
  buf g2 (y, t2);
endmodule
";
        let net = parse_verilog(src).unwrap();
        assert_eq!(net.num_inputs(), 3);
        for m in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(net.simulate(&v)[0], (v[0] ^ v[1]) && v[2], "{v:?}");
        }
    }

    #[test]
    fn parse_assign_expressions() {
        let src = "\
module m (a, b, s, y, z);
  input a, b, s;
  output y, z;
  assign y = s ? (a & ~b) : (a ^~ b);
  assign z = ~(a | b) ^ 1'b1;
endmodule
";
        let net = parse_verilog(src).unwrap();
        for m in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            let (a, b, s) = (v[0], v[1], v[2]);
            let o = net.simulate(&v);
            let expect_y = if s { a && !b } else { !(a ^ b) };
            assert_eq!(o[0], expect_y, "y at {v:?}");
            assert_eq!(o[1], !(a || b) ^ true, "z at {v:?}");
        }
    }

    #[test]
    fn parse_out_of_order_definitions() {
        let src = "\
module m (a, y);
  input a;
  output y;
  wire t;
  buf g1 (y, t);
  not g0 (t, a);
endmodule
";
        let net = parse_verilog(src).unwrap();
        assert!(net.simulate(&[false])[0]);
        assert!(!net.simulate(&[true])[0]);
    }

    #[test]
    fn rejects_cycles_and_buses() {
        let cyc = "module m (a, y); input a; output y; assign y = y & a; endmodule";
        assert!(parse_verilog(cyc).is_err());
        let bus = "module m (a, y); input [3:0] a; output y; endmodule";
        assert!(parse_verilog(bus).is_err());
    }

    #[test]
    fn rejects_a_duplicate_input_naming_its_line() {
        let src =
            "module m (a, y);\n  input a;\n  input a;\n  output y;\n  buf g (y, a);\nendmodule\n";
        let e = parse_verilog(src).unwrap_err();
        assert_eq!(e.line, 3, "{e}");
        assert!(e.message.contains("input a declared twice"), "{e}");
        let same_line = "module m (a, y); input a, a; output y; buf g (y, a); endmodule";
        assert!(parse_verilog(same_line).is_err());
    }

    #[test]
    fn rejects_a_gate_with_no_inputs_naming_its_line() {
        let src = "module m (a, y);\n  input a;\n  output y;\n  xor g (y);\nendmodule\n";
        let e = parse_verilog(src).unwrap_err();
        assert_eq!(e.line, 4, "{e}");
        assert!(e.message.contains("xor needs at least one input"), "{e}");
        for prim in ["and", "or", "nand", "nor", "xnor"] {
            let src = format!("module m (a, y); input a; output y; {prim} g (y); endmodule");
            assert!(parse_verilog(&src).is_err(), "{prim}");
        }
    }

    #[test]
    fn roundtrip_via_writer() {
        let mut net = Network::new("rt");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let c = net.add_input("c");
        let m = net.add_gate(GateOp::Maj, &[a, b, c]);
        let x = net.add_gate(GateOp::Mux, &[a, m, c]);
        let k = net.add_gate(GateOp::Xnor, &[x, b]);
        net.set_output("y", k);
        net.check().unwrap();
        let src = write_verilog(&net);
        let parsed = parse_verilog(&src).unwrap();
        for m in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(parsed.simulate(&v), net.simulate(&v), "{v:?}");
        }
    }

    #[test]
    fn bit_select_identifiers_are_atomic() {
        let src = "\
module m (a[0], a[1], y);
  input a[0], a[1];
  output y;
  xor g (y, a[0], a[1]);
endmodule
";
        let net = parse_verilog(src).unwrap();
        assert_eq!(net.num_inputs(), 2);
        assert!(net.simulate(&[true, false])[0]);
    }
}
