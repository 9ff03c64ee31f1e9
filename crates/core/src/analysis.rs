//! Higher-level function analysis and construction helpers: satisfying
//! assignments, truth-table and cube constructors — the utilities an EDA
//! client of the package reaches for first.

use crate::edge::Edge;
use crate::manager::Bbdd;

impl Bbdd {
    /// One satisfying assignment of `f`, or `None` when `f` is
    /// unsatisfiable. The assignment covers all variables (unconstrained
    /// ones default to `false`).
    ///
    /// ```
    /// use bbdd::Bbdd;
    /// let mut mgr = Bbdd::new(3);
    /// let (a, b) = (mgr.var(0), mgr.var(1));
    /// let nb = !b;
    /// let f = mgr.and(a, nb);
    /// let sat = mgr.pick_sat(f).expect("satisfiable");
    /// assert!(mgr.eval(f, &sat));
    /// assert!(mgr.pick_sat(mgr.zero()).is_none());
    /// ```
    pub fn pick_sat(&mut self, f: Edge) -> Option<Vec<bool>> {
        if f == Edge::ZERO {
            return None;
        }
        let n = self.num_vars();
        let mut assignment = vec![false; n];
        let mut g = f;
        // Restrict variable by variable, keeping a satisfiable branch.
        #[allow(clippy::needless_range_loop)]
        for v in 0..n {
            let g1 = self.restrict(g, v, true);
            if g1 != Edge::ZERO {
                assignment[v] = true;
                g = g1;
            } else {
                g = self.restrict(g, v, false);
                debug_assert_ne!(g, Edge::ZERO, "both cofactors unsat for sat f");
            }
        }
        debug_assert_eq!(g, Edge::ONE);
        Some(assignment)
    }

    /// Build a function from a packed truth table (the format
    /// [`Bbdd::truth_table`] produces: bit `m` of the table = value on the
    /// assignment whose bit `i` is variable `i`).
    ///
    /// # Panics
    /// Panics if `num_vars() > 24` or the table is shorter than `2^n` bits.
    pub fn from_truth_table(&mut self, table: &[u64]) -> Edge {
        let n = self.num_vars();
        assert!(n <= 24, "truth tables limited to 24 variables");
        let bits = 1usize << n;
        assert!(
            table.len() * 64 >= bits,
            "table too short for {n} variables"
        );
        self.from_tt_rec(table, 0, bits)
    }

    /// Build the function of table segment `[lo, lo+len)` over the
    /// variables `0..log2(len)` — Shannon decomposition on the highest
    /// variable of the segment.
    #[allow(clippy::wrong_self_convention)]
    fn from_tt_rec(&mut self, table: &[u64], lo: usize, len: usize) -> Edge {
        if len == 1 {
            let bit = (table[lo / 64] >> (lo % 64)) & 1 == 1;
            return if bit { Edge::ONE } else { Edge::ZERO };
        }
        let half = len / 2;
        let f0 = self.from_tt_rec(table, lo, half);
        let f1 = self.from_tt_rec(table, lo + half, half);
        if f0 == f1 {
            return f0;
        }
        // The splitting variable: bit index log2(half).
        let var = half.trailing_zeros() as usize;
        let lit = self.var(var);
        self.ite(lit, f1, f0)
    }

    /// Build the conjunction of literals described by `cube`:
    /// `Some(true)` = positive literal, `Some(false)` = negative,
    /// `None` = unconstrained.
    ///
    /// # Panics
    /// Panics if `cube.len() != num_vars()`.
    pub fn cube(&mut self, cube: &[Option<bool>]) -> Edge {
        assert_eq!(cube.len(), self.num_vars(), "cube width");
        let mut acc = Edge::ONE;
        for (v, lit) in cube.iter().enumerate() {
            if let Some(pol) = lit {
                let l = self.var(v).complement_if(!pol);
                acc = self.and(acc, l);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pick_sat_finds_witnesses() {
        let mut mgr = Bbdd::new(6);
        // An equality constraint with a single solution per (a, b) pair.
        let mut f = mgr.one();
        for i in 0..3 {
            let a = mgr.var(2 * i);
            let b = mgr.var(2 * i + 1);
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        let sat = mgr.pick_sat(f).unwrap();
        assert!(mgr.eval(f, &sat));
        assert_eq!(sat[0], sat[1]);
        assert_eq!(sat[2], sat[3]);
        assert_eq!(sat[4], sat[5]);
        assert!(mgr.pick_sat(Edge::ZERO).is_none());
        let everything = mgr.pick_sat(Edge::ONE).unwrap();
        assert!(mgr.eval(Edge::ONE, &everything));
    }

    #[test]
    fn from_truth_table_roundtrips() {
        let mut mgr = Bbdd::new(4);
        // maj(a, b, c) ⊕ d as a 16-bit table.
        let mut table = 0u64;
        for m in 0..16u64 {
            let (a, b, c, d) = (
                m & 1 == 1,
                m >> 1 & 1 == 1,
                m >> 2 & 1 == 1,
                m >> 3 & 1 == 1,
            );
            #[allow(clippy::nonminimal_bool)]
            let maj = (a && b) || (b && c) || (a && c);
            if maj ^ d {
                table |= 1 << m;
            }
        }
        let f = mgr.from_truth_table(&[table]);
        assert_eq!(mgr.truth_table(f), vec![table]);
        // Round-trip again through the other direction.
        let g = {
            let tt = mgr.truth_table(f);
            mgr.from_truth_table(&tt)
        };
        assert_eq!(f, g, "canonicity through table round-trip");
    }

    #[test]
    fn cube_builds_minterms() {
        let mut mgr = Bbdd::new(4);
        let c = mgr.cube(&[Some(true), None, Some(false), None]);
        assert_eq!(mgr.sat_count(c), 4);
        assert!(mgr.eval(c, &[true, false, false, true]));
        assert!(!mgr.eval(c, &[true, false, true, true]));
        let full = mgr.cube(&[None, None, None, None]);
        assert_eq!(full, Edge::ONE);
    }

    #[test]
    fn level_profile_counts_nodes() {
        let mut mgr = Bbdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(1);
        let f = mgr.xor(a, b);
        let profile = ddcore::api::RawManager::level_profile_edges(&mgr, &[f]).unwrap();
        assert_eq!(profile.iter().sum::<usize>(), mgr.node_count(f));
        // The XNOR node sits at the top level (bottom-based index n-1).
        assert_eq!(profile[3], 1);
    }
}

#[cfg(test)]
mod auto_reorder_tests {
    use crate::manager::Bbdd;
    use ddcore::dvo::{DvoPolicy, DvoStrategy, ReorderSchedule};

    #[test]
    fn auto_reorder_fires_and_rearms() {
        // Equality with a hostile order grows fast; arm the trigger low.
        let k = 6;
        let mut mgr = Bbdd::new(2 * k);
        mgr.set_reorder_policy(Some(DvoPolicy {
            strategy: DvoStrategy::Full,
            schedule: ReorderSchedule::NodeThreshold(64),
        }));
        let mut f = mgr.one();
        for i in 0..k {
            let a = mgr.var(i);
            let b = mgr.var(i + k);
            let eq = mgr.xnor(a, b);
            f = mgr.and(f, eq);
        }
        let before = mgr.live_nodes();
        let _pin = mgr.pin(f); // the registry, not a list, keeps f alive
        let fired = mgr.reorder_if_needed();
        assert!(fired, "threshold was crossed: {before} nodes");
        assert!(mgr.live_nodes() < before);
        assert!(mgr.validate().is_ok());
        // Re-armed above the new size: an immediate second call is a no-op.
        assert!(!mgr.reorder_if_needed());
        // Function intact.
        assert!(mgr.eval(
            f,
            &[true, false, true, false, true, false, true, false, true, false, true, false]
        ));
    }

    #[test]
    fn disarmed_managers_never_reorder() {
        let mut mgr = Bbdd::new(4);
        let a = mgr.var(0);
        let b = mgr.var(3);
        let f = mgr.xor(a, b);
        let _f = mgr.pin(f);
        assert!(!mgr.reorder_if_needed());
        assert_eq!(mgr.order(), vec![0, 1, 2, 3]);
    }
}
