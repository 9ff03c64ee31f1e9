//! Graphviz DOT export for ROBDDs (feature parity with the BBDD package's
//! exporter, so comparison figures can be drawn side by side).

use crate::edge::Edge;
use crate::manager::Robdd;
use ddcore::walk;

impl Robdd {
    /// Render the diagrams rooted at `roots` as a DOT digraph. Solid
    /// arrows are then-edges, dashed arrows else-edges, red marks
    /// complement attributes.
    #[must_use]
    pub fn to_dot(&self, roots: &[Edge], names: &[&str]) -> String {
        walk::to_dot(self, "robdd", roots, names, false, |id| {
            format!("x{}", self.node(id).var())
        })
    }

    /// One satisfying assignment of `f`, or `None` if unsatisfiable.
    pub fn pick_sat(&mut self, f: Edge) -> Option<Vec<bool>> {
        if f == Edge::ZERO {
            return None;
        }
        let n = self.num_vars();
        let mut assignment = vec![false; n];
        let mut g = f;
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let g1 = self.restrict(g, v, true);
            if g1 != Edge::ZERO {
                assignment[v] = true;
                g = g1;
            } else {
                g = self.restrict(g, v, false);
            }
        }
        Some(assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_mentions_every_node() {
        let mut mgr = Robdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let t = mgr.xor(a, b);
        let f = mgr.and(t, c);
        let dot = mgr.to_dot(&[f], &["f"]);
        assert!(dot.starts_with("digraph"));
        let defs = dot.matches(" [label=\"x").count();
        assert_eq!(defs, mgr.node_count(f));
    }

    #[test]
    fn pick_sat_finds_witnesses() {
        let mut mgr = Robdd::new(4);
        let (a, b) = (mgr.var(0), mgr.var(3));
        let nb = !b;
        let f = mgr.and(a, nb);
        let sat = mgr.pick_sat(f).unwrap();
        assert!(mgr.eval(f, &sat));
        assert!(mgr.pick_sat(Edge::ZERO).is_none());
    }
}
