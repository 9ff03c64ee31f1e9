//! Graphviz DOT export for visual inspection of BBDDs.
//!
//! Nodes are labelled `PV⊕SV` (biconditional) or `PV` (Shannon / R4).
//! Solid arrows are `=`-edges, dashed arrows are `≠`-edges, and dotted
//! red decorations mark complement attributes, mirroring the figures of
//! the paper.

use crate::edge::Edge;
use crate::manager::Bbdd;
use ddcore::walk;

impl Bbdd {
    /// Render the diagrams rooted at `roots` as a DOT digraph.
    ///
    /// `names` provides per-root labels; missing names default to `f{i}`.
    #[must_use]
    pub fn to_dot(&self, roots: &[Edge], names: &[&str]) -> String {
        walk::to_dot(self, "bbdd", roots, names, true, |id| {
            let n = self.node(id);
            let lvl = n.level() as usize;
            let pv = self.var_at_level[lvl];
            if n.is_shannon() {
                format!("x{pv}")
            } else {
                format!("x{pv}⊕x{}", self.var_at_level[lvl - 1])
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_output_mentions_all_nodes() {
        let mut mgr = Bbdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let t = mgr.xor(a, b);
        let f = mgr.and(t, c);
        let dot = mgr.to_dot(&[f], &["f"]);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("\"f\""));
        assert!(dot.contains("⊕"), "biconditional label expected");
        assert!(dot.ends_with("}\n"));
        // Every reachable node appears exactly once as a definition.
        let defs = dot.matches(" [label=\"x").count();
        assert_eq!(defs, mgr.node_count(f));
    }

    #[test]
    fn dot_handles_constant_roots() {
        let mgr = Bbdd::new(1);
        let dot = mgr.to_dot(&[Edge::ONE, Edge::ZERO], &["t", "f"]);
        assert!(dot.contains("root0 -> one"));
        assert!(dot.contains("root1 -> one"));
    }
}
