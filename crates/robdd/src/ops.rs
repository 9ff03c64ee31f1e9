//! Queries on ROBDD functions: evaluation, counting, restriction, support
//! and truth tables. The quantification / composition / model-enumeration
//! suite lives in `quant.rs` (the verification ops layer).

use crate::edge::Edge;
use crate::manager::Robdd;
use ddcore::api::RawManager;
use ddcore::walk::{self, NodeGraph, WalkScratch};
use std::collections::HashMap;

impl Robdd {
    /// Evaluate `f` under a complete assignment.
    ///
    /// # Panics
    /// Panics if `assignment.len() < num_vars()`.
    #[must_use]
    pub fn eval(&self, f: Edge, assignment: &[bool]) -> bool {
        assert!(
            assignment.len() >= self.num_vars(),
            "assignment must cover all {} variables",
            self.num_vars()
        );
        let mut e = f;
        loop {
            if e.is_constant() {
                return e == Edge::ONE;
            }
            let n = self.node(e.node());
            let child = if assignment[n.var() as usize] {
                n.then_()
            } else {
                n.else_()
            };
            e = child.complement_if(e.is_complemented());
        }
    }

    /// Internal nodes reachable from `f`.
    #[must_use]
    pub fn node_count(&self, f: Edge) -> usize {
        self.shared_node_count(&[f])
    }

    /// Distinct internal nodes reachable from any root (shared size).
    #[must_use]
    pub fn shared_node_count(&self, roots: &[Edge]) -> usize {
        walk::shared_node_count(self, roots)
    }

    /// Number of satisfying assignments over all variables.
    ///
    /// # Panics
    /// Panics if `num_vars() > 127`. The budgeted and checked forms are
    /// the `RawManager` counting methods.
    #[must_use]
    pub fn sat_count(&self, f: Edge) -> u128 {
        self.sat_count_edge(f)
    }

    /// The cofactor `f|_{var = value}`.
    ///
    /// # Panics
    /// Panics if `var >= num_vars()`.
    pub fn restrict(&mut self, f: Edge, var: usize, value: bool) -> Edge {
        let target_pos = self.pos_of_var[var] as usize;
        let mut memo: HashMap<u32, Edge> = HashMap::new();
        self.restrict_rec(f, var as u16, target_pos, value, &mut memo)
    }

    fn restrict_rec(
        &mut self,
        f: Edge,
        var: u16,
        target_pos: usize,
        value: bool,
        memo: &mut HashMap<u32, Edge>,
    ) -> Edge {
        if f.is_constant() || self.edge_pos(f) > target_pos {
            return f;
        }
        let id = f.node();
        let c = f.is_complemented();
        if let Some(&r) = memo.get(&id) {
            return r.complement_if(c);
        }
        let n = *self.node(id);
        let r = if n.var() == var {
            if value {
                n.then_()
            } else {
                n.else_()
            }
        } else {
            let t = self.restrict_rec(n.then_(), var, target_pos, value, memo);
            let e = self.restrict_rec(n.else_(), var, target_pos, value, memo);
            self.make_node(n.var(), t, e)
        };
        memo.insert(id, r);
        r.complement_if(c)
    }

    /// Does `f` depend on `var`? (Structural test — exact for ROBDDs.)
    #[must_use]
    pub fn depends_on(&self, f: Edge, var: usize) -> bool {
        self.support(f).contains(&var)
    }

    /// The support of `f` (sorted variable indices). For ROBDDs the
    /// structural support is the semantic support.
    #[must_use]
    pub fn support(&self, f: Edge) -> Vec<usize> {
        let mut used = vec![false; self.num_vars()];
        walk::visit(self, &[f], usize::MAX, |_, (_, _, meta)| {
            used[meta as u16 as usize] = true;
        });
        (0..used.len()).filter(|&v| used[v]).collect()
    }

    /// Packed truth table (same convention as the BBDD package).
    ///
    /// # Panics
    /// Panics if `num_vars() > 24`.
    #[must_use]
    pub fn truth_table(&self, f: Edge) -> Vec<u64> {
        let n = self.num_vars();
        assert!(n <= 24, "truth tables limited to 24 variables");
        let bits = 1usize << n;
        let words = bits.div_ceil(64);
        let mut out = vec![0u64; words];
        let mut assignment = vec![false; n];
        for m in 0..bits {
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = (m >> i) & 1 == 1;
            }
            if self.eval(f, &assignment) {
                out[m / 64] |= 1 << (m % 64);
            }
        }
        out
    }
}

/// The walks' view of the arena: words `(then, else, meta)`, the variable
/// in the meta word's low 16 bits; a node ranges over it and all below.
impl NodeGraph for Robdd {
    #[inline]
    fn node_slots(&self) -> u32 {
        u32::try_from(self.nodes.len()).expect("arena fits u32")
    }

    #[inline]
    fn node_words(&self, id: u32) -> (u32, u32, u32) {
        self.nodes[id as usize].words()
    }

    #[inline]
    fn universe(&self, meta: u32) -> u32 {
        (self.num_vars() - self.pos_of_var[meta as u16 as usize] as usize) as u32
    }

    fn walk_scratch(&self) -> &WalkScratch {
        &self.walk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn majority3(mgr: &mut Robdd) -> Edge {
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let ab = mgr.and(a, b);
        let bc = mgr.and(b, c);
        let ac = mgr.and(a, c);
        let t = mgr.or(ab, bc);
        mgr.or(t, ac)
    }

    #[test]
    fn sat_count_majority() {
        let mut mgr = Robdd::new(3);
        let maj = majority3(&mut mgr);
        assert_eq!(mgr.sat_count(maj), 4);
        assert_eq!(mgr.sat_count(Edge::ONE), 8);
        let a = mgr.var(0);
        assert_eq!(mgr.sat_count(a), 4);
    }

    #[test]
    fn restrict_and_quantify() {
        let mut mgr = Robdd::new(3);
        let maj = majority3(&mut mgr);
        let (b, c) = (mgr.var(1), mgr.var(2));
        let r1 = mgr.restrict(maj, 0, true);
        let or = mgr.or(b, c);
        assert_eq!(r1, or);
        let ex = mgr.exists(maj, &[0]);
        assert_eq!(ex, or);
        let fa = mgr.forall(maj, &[0]);
        let and = mgr.and(b, c);
        assert_eq!(fa, and);
    }

    #[test]
    fn support_is_exact() {
        let mut mgr = Robdd::new(4);
        let (a, c) = (mgr.var(0), mgr.var(2));
        let f = mgr.xor(a, c);
        assert_eq!(mgr.support(f), vec![0, 2]);
        assert!(mgr.depends_on(f, 0));
        assert!(!mgr.depends_on(f, 1));
    }

    #[test]
    fn compose_substitutes() {
        let mut mgr = Robdd::new(3);
        let (a, b, c) = (mgr.var(0), mgr.var(1), mgr.var(2));
        let f = mgr.and(a, b);
        let g = mgr.or(b, c);
        let h = mgr.compose(f, 0, g);
        assert_eq!(h, b);
    }

    #[test]
    fn truth_table_of_majority() {
        let mut mgr = Robdd::new(3);
        let maj = majority3(&mut mgr);
        let tt = mgr.truth_table(maj);
        assert_eq!(tt[0] & 0xFF, 0b1110_1000);
    }
}
