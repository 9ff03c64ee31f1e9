//! Edges with complement attributes, shared by both node shapes.
//!
//! A function is referenced by an [`Edge`]: a node id plus a *complement
//! attribute*. Only the 1 sink exists (node 0); constant 0 is the
//! complemented edge to it, and negation is a free, O(1) bit flip. The
//! packing — node id shifted left by one, the low bit the attribute — is
//! also the word the computed tables, the root registry and the parallel
//! overlay store.

/// A directed edge to a node, carrying the complement attribute.
///
/// Edges are plain 32-bit values and are only meaningful together with
/// the manager that created them (`ddcore::bbdd::Edge` and
/// `ddcore::robdd::Edge` are this type).
///
/// ```
/// use ddcore::Edge;
/// assert_eq!(!Edge::ONE, Edge::ZERO);
/// assert_eq!(!Edge::ZERO, Edge::ONE);
/// assert!(Edge::ZERO.is_complemented());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge(u32);

impl Edge {
    /// The constant-true function: the regular edge to the 1 sink.
    pub const ONE: Edge = Edge(0);
    /// The constant-false function: the complemented edge to the 1 sink.
    pub const ZERO: Edge = Edge(1);

    /// The edge to node `node`, complemented when `complemented` holds.
    #[inline]
    #[must_use]
    pub fn new(node: u32, complemented: bool) -> Self {
        Edge((node << 1) | u32::from(complemented))
    }

    /// Arena index of the target node.
    #[inline]
    #[must_use]
    pub fn node(self) -> u32 {
        self.0 >> 1
    }

    /// Whether the complement attribute is set.
    #[inline]
    #[must_use]
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same edge with the attribute cleared (the *regular* edge).
    #[inline]
    #[must_use]
    pub fn regular(self) -> Self {
        Edge(self.0 & !1)
    }

    /// Complement this edge if `c` is true.
    #[inline]
    #[must_use]
    pub fn complement_if(self, c: bool) -> Self {
        Edge(self.0 ^ u32::from(c))
    }

    /// `true` when this edge points at the 1 sink (constant function).
    #[inline]
    #[must_use]
    pub fn is_constant(self) -> bool {
        self.0 <= 1
    }

    /// The packed word (computed-table keys, root registry, overlay).
    #[inline]
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Rebuild an edge from its packed word.
    #[inline]
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        Edge(bits)
    }
}

impl std::ops::Not for Edge {
    type Output = Edge;

    /// Complement the function — a free operation thanks to edge attributes.
    #[inline]
    fn not(self) -> Edge {
        Edge(self.0 ^ 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_complements() {
        assert_eq!(!Edge::ONE, Edge::ZERO);
        assert_eq!(Edge::ONE.node(), Edge::ZERO.node());
        assert!(Edge::ONE.is_constant() && Edge::ZERO.is_constant());
        assert!(!Edge::ONE.is_complemented());
        assert!(Edge::ZERO.is_complemented());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        for id in [0u32, 1, 2, 77, 1000, 1 << 20, (1 << 30) - 1] {
            for c in [false, true] {
                let e = Edge::new(id, c);
                assert_eq!(e.node(), id);
                assert_eq!(e.is_complemented(), c);
                assert_eq!(e.regular().node(), id);
                assert!(!e.regular().is_complemented());
                assert_eq!(e.complement_if(true), !e);
                assert_eq!(e.complement_if(false), e);
                assert_eq!(Edge::from_bits(e.bits()), e);
            }
        }
    }

    #[test]
    fn packing_roundtrip() {
        for id in [0u32, 1, 77, 1 << 20] {
            for c in [false, true] {
                let e = Edge::new(id, c);
                assert_eq!((e.node(), e.is_complemented()), (id, c));
                assert_eq!(!!e, e);
            }
        }
        assert!(Edge::ONE.is_constant());
        assert_eq!(!Edge::ONE, Edge::ZERO);
    }

    #[test]
    fn double_complement_is_identity() {
        let e = Edge::new(42, true);
        assert_eq!(!!e, e);
    }
}
