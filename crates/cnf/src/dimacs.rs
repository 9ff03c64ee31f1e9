//! DIMACS CNF representation, strict parser and writer.
//!
//! The parser is deliberately strict: SAT-competition archives are full of
//! silently-truncated and hand-edited files, and a model counter that
//! guesses at malformed input produces *wrong numbers*, not error
//! messages. Every rejection carries the 1-based line number and a
//! machine-distinguishable [`DimacsErrorKind`].

use std::fmt;

/// One clause: a disjunction of non-zero DIMACS literals. Literal `v`
/// (1-based, positive) is the variable `v - 1`; `-v` is its negation.
pub type Clause = Vec<i32>;

/// A CNF formula over the declared variable universe `0..num_vars`.
///
/// `num_vars` is the *declared* count from the `p cnf` header — the
/// semantics of model counting. Variables may be absent from every
/// clause; they still double the model count each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cnf {
    /// Declared number of variables (the DIMACS header's first field).
    pub num_vars: usize,
    /// The clauses, in file order.
    pub clauses: Vec<Clause>,
}

impl Cnf {
    /// An empty formula (no clauses — constant true) over `num_vars`
    /// variables.
    #[must_use]
    pub fn new(num_vars: usize) -> Self {
        Cnf {
            num_vars,
            clauses: Vec::new(),
        }
    }

    /// Append a clause.
    ///
    /// # Panics
    /// Panics if any literal is zero or names a variable `≥ num_vars`.
    pub fn add_clause(&mut self, lits: &[i32]) {
        for &l in lits {
            assert!(l != 0, "clause literal must be non-zero");
            assert!(
                l.unsigned_abs() as usize <= self.num_vars,
                "literal {l} out of range for {} variables",
                self.num_vars
            );
        }
        self.clauses.push(lits.to_vec());
    }

    /// Number of clauses.
    #[must_use]
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Evaluate under a full assignment (`assignment[v]` = value of
    /// variable `v`). Reference semantics for the brute-force oracle.
    ///
    /// # Panics
    /// Panics if the assignment is shorter than `num_vars`.
    #[must_use]
    pub fn eval(&self, assignment: &[bool]) -> bool {
        assert!(assignment.len() >= self.num_vars);
        self.clauses.iter().all(|c| {
            c.iter().any(|&l| {
                let v = (l.unsigned_abs() - 1) as usize;
                assignment[v] == (l > 0)
            })
        })
    }

    /// Brute-force model count over the declared universe — the oracle
    /// the diagram-based counters are tested against. `None` when
    /// `num_vars > 24` (2^24 assignments is the sane testing ceiling).
    #[must_use]
    pub fn brute_force_count(&self) -> Option<u128> {
        if self.num_vars > 24 {
            return None;
        }
        let mut count = 0u128;
        let mut assignment = vec![false; self.num_vars];
        for bits in 0u64..(1u64 << self.num_vars) {
            for (v, slot) in assignment.iter_mut().enumerate() {
                *slot = (bits >> v) & 1 == 1;
            }
            if self.eval(&assignment) {
                count += 1;
            }
        }
        Some(count)
    }

    /// Per-variable occurrence counts (both polarities pooled).
    #[must_use]
    pub fn occurrences(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.num_vars];
        for c in &self.clauses {
            for &l in c {
                occ[(l.unsigned_abs() - 1) as usize] += 1;
            }
        }
        occ
    }

    /// Serialize as DIMACS text (header, one clause per line, `0`
    /// terminators), with an optional `c` comment block on top. Output
    /// round-trips through [`parse_dimacs`].
    #[must_use]
    pub fn to_dimacs(&self, comment: &str) -> String {
        let mut out = String::new();
        for line in comment.lines() {
            out.push_str("c ");
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(&format!("p cnf {} {}\n", self.num_vars, self.clauses.len()));
        for c in &self.clauses {
            for &l in c {
                out.push_str(&l.to_string());
                out.push(' ');
            }
            out.push_str("0\n");
        }
        out
    }
}

// ───────────────────────── errors ─────────────────────────────────────────

/// What exactly the parser rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DimacsErrorKind {
    /// Clause data (or EOF) before any `p cnf` header.
    MissingHeader,
    /// A `p` line that is not `p cnf <vars> <clauses>` with both counts
    /// non-negative integers.
    BadHeader(String),
    /// A second `p` line.
    DuplicateHeader,
    /// A token that is not an integer literal.
    BadToken(String),
    /// A header declaring more variables than a manager can index
    /// ([`MAX_VARS`]).
    TooManyVars(usize),
    /// A literal naming a variable outside `1..=num_vars`.
    LiteralOutOfRange(i64),
    /// EOF inside a clause — the final `0` terminator is missing.
    MissingTerminator,
    /// The file holds a different number of clauses than the header
    /// declared.
    ClauseCountMismatch {
        /// Count from the `p cnf` header.
        declared: usize,
        /// Clauses actually present.
        found: usize,
    },
}

/// The most variables a header may declare (the managers' own limit).
pub use ddcore::MAX_VARS;

/// A parse rejection: the kind plus the 1-based line it was detected on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimacsError {
    /// 1-based line number of the offending input.
    pub line: usize,
    /// What was rejected.
    pub kind: DimacsErrorKind,
}

impl fmt::Display for DimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            DimacsErrorKind::MissingHeader => write!(f, "missing 'p cnf <vars> <clauses>' header"),
            DimacsErrorKind::BadHeader(h) => write!(f, "malformed header '{h}'"),
            DimacsErrorKind::DuplicateHeader => write!(f, "duplicate 'p' header"),
            DimacsErrorKind::TooManyVars(n) => write!(
                f,
                "header declares {n} variables, more than the {MAX_VARS} a manager supports"
            ),
            DimacsErrorKind::BadToken(t) => write!(f, "expected integer literal, got '{t}'"),
            DimacsErrorKind::LiteralOutOfRange(l) => {
                write!(f, "literal {l} out of declared variable range")
            }
            DimacsErrorKind::MissingTerminator => {
                write!(f, "unterminated clause (missing trailing 0)")
            }
            DimacsErrorKind::ClauseCountMismatch { declared, found } => {
                write!(f, "header declared {declared} clauses, file has {found}")
            }
        }
    }
}

impl std::error::Error for DimacsError {}

// ───────────────────────── parser ─────────────────────────────────────────

/// Parse DIMACS CNF text.
///
/// Accepted grammar: any number of `c` comment lines and blank lines,
/// exactly one `p cnf <vars> <clauses>` header, then whitespace-separated
/// integer literals with each clause closed by a `0`. Clauses may span
/// lines and several may share one line. Everything else — clause data
/// before the header, a second header, a variable count above
/// [`MAX_VARS`], non-integer tokens, literals outside the declared range,
/// a missing final terminator, or a clause count that contradicts the
/// header — is an error with a line number.
///
/// # Errors
/// A [`DimacsError`] pinpointing the first rejected line.
pub fn parse_dimacs(text: &str) -> Result<Cnf, DimacsError> {
    let mut header: Option<(usize, usize)> = None;
    let mut clauses: Vec<Clause> = Vec::new();
    let mut current: Clause = Vec::new();
    let mut last_data_line = 1;

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('c') {
            continue;
        }
        if let Some(rest) = line.strip_prefix('p') {
            if header.is_some() {
                return Err(DimacsError {
                    line: lineno,
                    kind: DimacsErrorKind::DuplicateHeader,
                });
            }
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let parsed = match fields.as_slice() {
                ["cnf", v, c] => v.parse::<usize>().ok().zip(c.parse::<usize>().ok()),
                _ => None,
            };
            match parsed {
                Some((v, _)) if v > MAX_VARS => {
                    return Err(DimacsError {
                        line: lineno,
                        kind: DimacsErrorKind::TooManyVars(v),
                    })
                }
                Some(vc) => header = Some(vc),
                None => {
                    return Err(DimacsError {
                        line: lineno,
                        kind: DimacsErrorKind::BadHeader(line.to_string()),
                    })
                }
            }
            continue;
        }
        let Some((num_vars, _)) = header else {
            return Err(DimacsError {
                line: lineno,
                kind: DimacsErrorKind::MissingHeader,
            });
        };
        last_data_line = lineno;
        for tok in line.split_whitespace() {
            let lit: i64 = tok.parse().map_err(|_| DimacsError {
                line: lineno,
                kind: DimacsErrorKind::BadToken(tok.to_string()),
            })?;
            if lit == 0 {
                clauses.push(std::mem::take(&mut current));
            } else {
                if lit.unsigned_abs() > num_vars as u64 || lit.unsigned_abs() > i32::MAX as u64 {
                    return Err(DimacsError {
                        line: lineno,
                        kind: DimacsErrorKind::LiteralOutOfRange(lit),
                    });
                }
                current.push(lit as i32);
            }
        }
    }

    let Some((num_vars, declared)) = header else {
        return Err(DimacsError {
            line: last_data_line,
            kind: DimacsErrorKind::MissingHeader,
        });
    };
    if !current.is_empty() {
        return Err(DimacsError {
            line: last_data_line,
            kind: DimacsErrorKind::MissingTerminator,
        });
    }
    if clauses.len() != declared {
        return Err(DimacsError {
            line: last_data_line,
            kind: DimacsErrorKind::ClauseCountMismatch {
                declared,
                found: clauses.len(),
            },
        });
    }
    Ok(Cnf { num_vars, clauses })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_instance() {
        let cnf = parse_dimacs("c toy\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(cnf.num_vars, 3);
        assert_eq!(cnf.clauses, vec![vec![1, -2], vec![2, 3]]);
    }

    #[test]
    fn clauses_span_and_share_lines() {
        let cnf = parse_dimacs("p cnf 4 3\n1 2\n-3 0 4 0\n-1 -4 0\n").unwrap();
        assert_eq!(cnf.clauses, vec![vec![1, 2, -3], vec![4], vec![-1, -4]]);
    }

    #[test]
    fn empty_clause_is_allowed_and_unsatisfiable() {
        let cnf = parse_dimacs("p cnf 2 1\n0\n").unwrap();
        assert_eq!(cnf.clauses, vec![Vec::<i32>::new()]);
        assert_eq!(cnf.brute_force_count(), Some(0));
    }

    #[test]
    fn zero_clause_formula_counts_full_universe() {
        let cnf = parse_dimacs("p cnf 5 0\n").unwrap();
        assert_eq!(cnf.brute_force_count(), Some(32));
    }

    #[test]
    fn round_trips_through_writer() {
        let text = "p cnf 3 2\n1 -2 0\n2 3 0\n";
        let cnf = parse_dimacs(text).unwrap();
        let again = parse_dimacs(&cnf.to_dimacs("round trip")).unwrap();
        assert_eq!(cnf, again);
    }

    // ── rejection corpus ────────────────────────────────────────────────

    fn kind_of(text: &str) -> DimacsErrorKind {
        parse_dimacs(text).unwrap_err().kind
    }

    #[test]
    fn rejects_garbage_headers() {
        assert!(matches!(
            kind_of("p dnf 3 2\n1 0\n"),
            DimacsErrorKind::BadHeader(_)
        ));
        assert!(matches!(
            kind_of("p cnf three 2\n"),
            DimacsErrorKind::BadHeader(_)
        ));
        assert!(matches!(
            kind_of("p cnf 3\n"),
            DimacsErrorKind::BadHeader(_)
        ));
        assert!(matches!(
            kind_of("p cnf -3 2\n"),
            DimacsErrorKind::BadHeader(_)
        ));
        assert!(matches!(
            kind_of("p cnf 3 2 extra\n"),
            DimacsErrorKind::BadHeader(_)
        ));
    }

    #[test]
    fn rejects_variable_counts_past_the_manager_ceiling() {
        let err = parse_dimacs("p cnf 70000 1\n1 0\n").unwrap_err();
        assert_eq!(err.kind, DimacsErrorKind::TooManyVars(70000));
        assert_eq!(err.line, 1);
        assert!(err.to_string().contains("65534"), "got: {err}");
        assert_eq!(
            kind_of(&format!("p cnf {} 0\n", MAX_VARS + 1)),
            DimacsErrorKind::TooManyVars(MAX_VARS + 1)
        );
        assert!(parse_dimacs(&format!("p cnf {MAX_VARS} 0\n")).is_ok());
    }

    #[test]
    fn rejects_missing_header() {
        assert_eq!(kind_of("1 -2 0\n"), DimacsErrorKind::MissingHeader);
        assert_eq!(kind_of(""), DimacsErrorKind::MissingHeader);
        assert_eq!(kind_of("c only comments\n"), DimacsErrorKind::MissingHeader);
    }

    #[test]
    fn rejects_duplicate_header() {
        assert_eq!(
            kind_of("p cnf 2 1\np cnf 2 1\n1 0\n"),
            DimacsErrorKind::DuplicateHeader
        );
    }

    #[test]
    fn rejects_out_of_range_literals() {
        assert_eq!(
            kind_of("p cnf 3 1\n4 0\n"),
            DimacsErrorKind::LiteralOutOfRange(4)
        );
        assert_eq!(
            kind_of("p cnf 3 1\n-9 0\n"),
            DimacsErrorKind::LiteralOutOfRange(-9)
        );
        // Bigger than i32 entirely.
        assert!(matches!(
            kind_of("p cnf 3 1\n99999999999 0\n"),
            DimacsErrorKind::LiteralOutOfRange(_)
        ));
    }

    #[test]
    fn rejects_missing_terminator() {
        let err = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3\n").unwrap_err();
        assert_eq!(err.kind, DimacsErrorKind::MissingTerminator);
        assert_eq!(err.line, 3);
    }

    #[test]
    fn rejects_bad_tokens() {
        assert!(matches!(
            kind_of("p cnf 3 1\n1 x 0\n"),
            DimacsErrorKind::BadToken(_)
        ));
    }

    #[test]
    fn rejects_clause_count_mismatch() {
        assert_eq!(
            kind_of("p cnf 3 2\n1 0\n"),
            DimacsErrorKind::ClauseCountMismatch {
                declared: 2,
                found: 1
            }
        );
        assert_eq!(
            kind_of("p cnf 3 1\n1 0\n2 0\n"),
            DimacsErrorKind::ClauseCountMismatch {
                declared: 1,
                found: 2
            }
        );
    }

    #[test]
    fn error_carries_line_numbers() {
        let err = parse_dimacs("c a\nc b\np cnf 3 1\n1 zz 0\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("line 4"));
    }
}
