//! Plain-text serialization of BBDD forests.
//!
//! The format stores the manager's variable count and current order plus a
//! bottom-up node list and the root edges. Loading replays the nodes
//! through `make_node`, so a reloaded forest is re-canonicalized — loading
//! can only shrink a diagram, never corrupt it, and edge identities are
//! remapped safely.
//!
//! ```text
//! bbdd 1              # magic + format version
//! vars 4
//! order 0 1 2 3       # top-based variable order
//! node 5 0 B 1:1 0:0  # id level mode(B/S) neq(id:compl) eq(id:compl)
//! …
//! root f0 5:0
//! end
//! ```
//! Node id 0 is the 1-sink.

use super::{Bbdd, BbddFn, BbddManager};
use crate::api::{Function, ManagerRef};
use crate::walk;
use crate::Edge;
use std::collections::HashMap;
use std::fmt;

/// Problems encountered while parsing a serialized forest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadError {
    /// 1-based line number (0 when the input ended early).
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BBDD load error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for LoadError {}

/// Problems encountered while serializing a forest: a root (or a node
/// reachable from one) is not stored in the manager — a stale [`Edge`]
/// that survived past a GC of its function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveError {
    /// Index into the caller's `roots` slice of the offending root.
    pub root: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for SaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BBDD save error at root {}: {}", self.root, self.message)
    }
}

impl std::error::Error for SaveError {}

fn err(line: usize, message: &str) -> LoadError {
    LoadError {
        line,
        message: message.to_string(),
    }
}

impl Bbdd {
    /// Serialize the forest rooted at `roots` to the text format.
    ///
    /// # Panics
    /// Panics if a root is stale; [`Bbdd::try_save`] reports it.
    #[must_use]
    pub fn save(&self, roots: &[Edge], names: &[&str]) -> String {
        match self.try_save(roots, names) {
            Ok(text) => text,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Bbdd::save`] over owned handles.
    #[must_use]
    pub fn save_fns(&self, roots: &[BbddFn], names: &[&str]) -> String {
        let edges: Vec<Edge> = roots.iter().map(Function::edge).collect();
        self.save(&edges, names)
    }

    /// [`Bbdd::load`] into a handle-level manager with owned roots.
    ///
    /// # Errors
    /// The first malformed or inconsistent line.
    pub fn load_fns(text: &str) -> Result<(BbddManager, Vec<(String, BbddFn)>), LoadError> {
        let (mgr, roots) = Self::load(text)?;
        let mgr = ManagerRef::new(mgr);
        let handles = roots
            .into_iter()
            .map(|(name, e)| (name, mgr.lift(e)))
            .collect();
        Ok((mgr, handles))
    }

    /// [`Bbdd::save`], rejecting stale roots instead of panicking.
    ///
    /// An [`Edge`] kept as a plain value (outside an owned handle) can
    /// outlive its nodes: after a GC it indexes freed storage, and the old
    /// exporter silently wrote whatever bytes sat there. Every root is now
    /// checked against the store before any output is produced.
    ///
    /// # Errors
    /// [`SaveError`] naming the first root that is not stored.
    pub fn try_save(&self, roots: &[Edge], names: &[&str]) -> Result<String, SaveError> {
        use std::fmt::Write as _;
        for (i, e) in roots.iter().enumerate() {
            if !self.edge_is_stored(*e) {
                return Err(SaveError {
                    root: i,
                    message: format!(
                        "edge to node {} is stale (freed or never stored); \
                         hold functions as handles to keep them alive",
                        e.node()
                    ),
                });
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "bbdd 1");
        let _ = writeln!(out, "vars {}", self.num_vars());
        let order: Vec<String> = self.order().iter().map(ToString::to_string).collect();
        let _ = writeln!(out, "order {}", order.join(" "));

        // Collect reachable nodes, emitted bottom-up (children first).
        let mut nodes: Vec<u32> = Vec::new();
        walk::visit(self, roots, usize::MAX, |id, _| nodes.push(id));
        nodes.sort_by_key(|&id| self.node_info(Edge::new(id, false)).expect("node").level);
        let fmt_edge = |e: Edge| -> String {
            // `edge_id` is `None` exactly for constants, which the format
            // encodes as the sink id 0; every non-constant edge written
            // here hangs under a validated root, so its id is live.
            debug_assert!(self.edge_is_stored(e));
            let id = self.edge_id(e).unwrap_or(0);
            format!("{}:{}", id, u8::from(e.is_complemented()))
        };
        for &id in &nodes {
            let info = self.node_info(Edge::new(id, false)).expect("node");
            let _ = writeln!(
                out,
                "node {} {} {} {} {}",
                id,
                info.level,
                if info.shannon { 'S' } else { 'B' },
                fmt_edge(info.neq),
                fmt_edge(info.eq)
            );
        }
        for (i, r) in roots.iter().enumerate() {
            let name = names.get(i).copied().unwrap_or("");
            let label = if name.is_empty() {
                format!("f{i}")
            } else {
                name.to_string()
            };
            let _ = writeln!(out, "root {label} {}", fmt_edge(*r));
        }
        let _ = writeln!(out, "end");
        Ok(out)
    }

    /// Reconstruct a forest saved by [`Bbdd::save`] into a fresh manager.
    /// Returns the manager plus the named root edges in file order.
    ///
    /// # Errors
    /// Returns a [`LoadError`] for malformed input, out-of-range levels or
    /// forward references.
    pub fn load(text: &str) -> Result<(Bbdd, Vec<(String, Edge)>), LoadError> {
        let mut mgr: Option<Bbdd> = None;
        let mut saw_magic = false;
        let mut vars: Option<usize> = None;
        let mut remap: HashMap<u32, Edge> = HashMap::new();
        let mut roots: Vec<(String, Edge)> = Vec::new();
        let mut finished = false;

        let parse_edge =
            |tok: &str, remap: &HashMap<u32, Edge>, line: usize| -> Result<Edge, LoadError> {
                let (id_s, c_s) = tok
                    .split_once(':')
                    .ok_or_else(|| err(line, "edge must be id:compl"))?;
                let id: u32 = id_s.parse().map_err(|_| err(line, "bad edge id"))?;
                let c = match c_s {
                    "0" => false,
                    "1" => true,
                    _ => return Err(err(line, "edge complement must be 0 or 1")),
                };
                if id == 0 {
                    return Ok(Edge::ONE.complement_if(c));
                }
                remap
                    .get(&id)
                    .map(|e| e.complement_if(c))
                    .ok_or_else(|| err(line, &format!("node {id} referenced before definition")))
            };

        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let s = match raw.find('#') {
                Some(p) => raw[..p].trim(),
                None => raw.trim(),
            };
            if s.is_empty() || finished {
                continue;
            }
            let toks: Vec<&str> = s.split_whitespace().collect();
            match toks[0] {
                "bbdd" => {
                    if toks.get(1) != Some(&"1") {
                        return Err(err(line, "unsupported format version"));
                    }
                    saw_magic = true;
                }
                "vars" => {
                    let n: usize = toks
                        .get(1)
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| err(line, "bad vars line"))?;
                    if n == 0 {
                        return Err(err(line, "vars must be positive"));
                    }
                    vars = Some(n);
                    mgr = Some(Bbdd::new(n));
                }
                "order" => {
                    let n = vars.ok_or_else(|| err(line, "order before vars"))?;
                    let order: Vec<usize> = toks[1..]
                        .iter()
                        .map(|t| t.parse::<usize>())
                        .collect::<Result<_, _>>()
                        .map_err(|_| err(line, "bad order line"))?;
                    if order.len() != n {
                        return Err(err(line, "order length does not match vars"));
                    }
                    mgr.as_mut()
                        .ok_or_else(|| err(line, "order before vars"))?
                        .reorder_to(&order);
                }
                "node" => {
                    let m = mgr.as_mut().ok_or_else(|| err(line, "node before vars"))?;
                    if toks.len() != 6 {
                        return Err(err(line, "node needs: id level mode neq eq"));
                    }
                    let id: u32 = toks[1].parse().map_err(|_| err(line, "bad node id"))?;
                    let level: u16 = toks[2].parse().map_err(|_| err(line, "bad level"))?;
                    if level as usize >= m.num_vars() {
                        return Err(err(line, "level out of range"));
                    }
                    let edge = match toks[3] {
                        "S" => {
                            // Shannon nodes are exactly the level's literal.
                            let pv = m.order()[m.num_vars() - 1 - level as usize];
                            m.var(pv)
                        }
                        "B" => {
                            let neq = parse_edge(toks[4], &remap, line)?;
                            let eq = parse_edge(toks[5], &remap, line)?;
                            m.make_node(level, neq, eq)
                        }
                        _ => return Err(err(line, "mode must be B or S")),
                    };
                    remap.insert(id, edge);
                }
                "root" => {
                    if toks.len() != 3 {
                        return Err(err(line, "root needs: name edge"));
                    }
                    let e = parse_edge(toks[2], &remap, line)?;
                    roots.push((toks[1].to_string(), e));
                }
                "end" => finished = true,
                _ => return Err(err(line, &format!("unknown directive {}", toks[0]))),
            }
        }
        if !saw_magic {
            return Err(err(0, "missing bbdd magic line"));
        }
        let mgr = mgr.ok_or_else(|| err(0, "missing vars line"))?;
        if !finished {
            return Err(err(0, "missing end line"));
        }
        Ok((mgr, roots))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(mgr: &mut Bbdd) -> Vec<Edge> {
        let a = mgr.var(0);
        let b = mgr.var(1);
        let c = mgr.var(2);
        let x = mgr.xor(a, b);
        let f = mgr.and(x, c);
        let g = mgr.xnor(b, c);
        vec![f, !g]
    }

    #[test]
    fn save_load_roundtrip_preserves_functions() {
        let mut mgr = Bbdd::new(4);
        let roots = sample(&mut mgr);
        let text = mgr.save(&roots, &["f", "ng"]);
        let (mut loaded, lroots) = Bbdd::load(&text).unwrap();
        assert_eq!(lroots.len(), 2);
        assert_eq!(lroots[0].0, "f");
        assert_eq!(lroots[1].0, "ng");
        for m in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            for (orig, (_, copy)) in roots.iter().zip(&lroots) {
                assert_eq!(mgr.eval(*orig, &v), loaded.eval(*copy, &v), "{v:?}");
            }
        }
        assert!(loaded.validate().is_ok());
        // Canonicity: same node counts after the round-trip.
        assert_eq!(
            mgr.shared_node_count(&roots),
            loaded.shared_node_count(&[lroots[0].1, lroots[1].1])
        );
        let pins = [loaded.pin(lroots[0].1), loaded.pin(lroots[1].1)];
        let _ = loaded.sift();
        for (orig, le) in roots.iter().zip([lroots[0].1, lroots[1].1]) {
            for m in 0..16u32 {
                let v: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
                assert_eq!(mgr.eval(*orig, &v), loaded.eval(le, &v));
            }
        }
        drop(pins);
    }

    #[test]
    fn handle_save_load_roundtrip() {
        use crate::api::{BooleanFunction, FunctionManager};
        let mut mgr = Bbdd::new(4);
        let roots = sample(&mut mgr);
        let text = {
            let pins: Vec<_> = roots.iter().map(|&e| mgr.pin(e)).collect();
            let text = mgr.save(&roots, &["f", "ng"]);
            drop(pins);
            text
        };
        let (loaded, lroots) = Bbdd::load_fns(&text).unwrap();
        assert_eq!(loaded.external_roots(), 2, "loaded roots come pre-pinned");
        loaded.gc(); // must be a no-op for the pinned forest
        for m in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            for (orig, (_, copy)) in roots.iter().zip(&lroots) {
                assert_eq!(mgr.eval(*orig, &v), copy.eval(&v));
            }
        }
        assert!(loaded.backend().validate().is_ok());
    }

    #[test]
    fn save_load_keeps_nonidentity_orders() {
        let mut mgr = Bbdd::new(4);
        let roots = sample(&mut mgr);
        mgr.reorder_to(&[2, 0, 3, 1]);
        let text = mgr.save(&roots, &[]);
        let (loaded, lroots) = Bbdd::load(&text).unwrap();
        assert_eq!(loaded.order(), vec![2, 0, 3, 1]);
        for m in 0..16u32 {
            let v: Vec<bool> = (0..4).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(roots[0], &v), loaded.eval(lroots[0].1, &v));
        }
    }

    #[test]
    fn constants_and_literals_roundtrip() {
        let mut mgr = Bbdd::new(2);
        let a = mgr.var(1);
        let text = mgr.save(&[Edge::ONE, Edge::ZERO, a, !a], &["t", "f", "a", "na"]);
        let (loaded, lroots) = Bbdd::load(&text).unwrap();
        assert_eq!(lroots[0].1, Edge::ONE);
        assert_eq!(lroots[1].1, Edge::ZERO);
        assert!(loaded.eval(lroots[2].1, &[false, true]));
        assert!(!loaded.eval(lroots[3].1, &[false, true]));
    }

    #[test]
    fn try_save_rejects_stale_roots() {
        let mut mgr = Bbdd::new(3);
        let roots = sample(&mut mgr);
        // Pin only the first function; GC frees the second one's nodes.
        let keep = mgr.pin(roots[0]);
        mgr.gc();
        let stale = roots[1];
        let e = mgr.try_save(&[roots[0], stale], &["f", "ng"]).unwrap_err();
        assert_eq!(e.root, 1, "second root is the stale one");
        assert!(e.message.contains("stale"), "{e}");
        // The live root alone still saves and round-trips.
        let text = mgr.try_save(&[roots[0]], &["f"]).unwrap();
        let (loaded, lroots) = Bbdd::load(&text).unwrap();
        for m in 0..8u32 {
            let v: Vec<bool> = (0..3).map(|i| (m >> i) & 1 == 1).collect();
            assert_eq!(mgr.eval(roots[0], &v), loaded.eval(lroots[0].1, &v));
        }
        drop(keep);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn save_panics_on_stale_roots() {
        let mut mgr = Bbdd::new(3);
        let roots = sample(&mut mgr);
        mgr.gc(); // nothing pinned: all roots stale
        let _ = mgr.save(&roots, &[]);
    }

    #[test]
    fn load_rejects_malformed_input() {
        assert!(Bbdd::load("").is_err());
        assert!(Bbdd::load("bbdd 2\nvars 1\nend\n").is_err());
        assert!(Bbdd::load("bbdd 1\nvars 0\nend\n").is_err());
        assert!(Bbdd::load("bbdd 1\nvars 2\norder 0\nend\n").is_err());
        // Forward reference.
        let fwd = "bbdd 1\nvars 2\norder 0 1\nnode 5 1 B 9:0 0:0\nend\n";
        assert!(Bbdd::load(fwd).is_err());
        // Missing end.
        assert!(Bbdd::load("bbdd 1\nvars 1\norder 0\n").is_err());
        // Unknown directive.
        assert!(Bbdd::load("bbdd 1\nvars 1\norder 0\nbogus\nend\n").is_err());
    }
}
