//! BBDD node storage and the strong-canonical unique-table key.
//!
//! A stored node is uniquely labelled by the tuple
//! `{CVO-level, ≠-child, ≠-attribute, =-child}` (paper §IV-A1) plus one
//! *mode* bit distinguishing reduction-rule-R4 degenerate nodes (Shannon
//! nodes, `SV = 1`) from ordinary biconditional nodes: the literal `v` and
//! the function `XNOR(v, w)` both have constant children, and only the mode
//! bit tells them apart.
//!
//! Storage is packed for cache locality:
//!
//! * a [`Node`] is exactly three `u32` words — the two child edge words
//!   (complement attribute folded into bit 0 of each, see
//!   [`Edge`](crate::edge::Edge)) and a meta word carrying the 16-bit level
//!   plus the Shannon/mark/free flag bits;
//! * a [`NodeKey`] is one `u64`: the `≠`-edge word in the high half and the
//!   `=`-edge word in the low half. The `=`-edge is regular by the
//!   canonical form, so its free bit 0 holds the mode bit — the key packs
//!   with zero waste. It is never stored: the unique tables hold
//!   `(cached hash, id)` slots and derive a stored node's key from the
//!   arena ([`Node::key`], through the arena's
//!   [`KeyStore`](ddcore::table::KeyStore) impl).

use crate::edge::Edge;
use ddcore::cantor::CantorHasher;
use ddcore::table::{KeyStore, TableKey};

/// Level value reserved for the 1 sink.
pub(crate) const TERMINAL_LEVEL: u16 = u16::MAX;

const META_SHANNON: u32 = 1 << 16;
const META_MARK: u32 = 1 << 17;
const META_FREE: u32 = 1 << 18;

/// One arena slot: 12 bytes, three packed `u32` words. Levels are
/// bottom-based (level 0 = the CVO level with the fictitious `SV = 1`,
/// level `n-1` = the root level).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    /// Packed `PV ≠ SV` child edge (bit 0 = complement attribute).
    neq_bits: u32,
    /// Packed `PV = SV` child edge (always regular — canonicity invariant).
    eq_bits: u32,
    /// `level` in bits 0..16, flags above.
    meta: u32,
}

impl Node {
    pub(crate) fn terminal() -> Self {
        Node {
            neq_bits: Edge::ONE.bits(),
            eq_bits: Edge::ONE.bits(),
            meta: TERMINAL_LEVEL as u32,
        }
    }

    pub(crate) fn new(level: u16, shannon: bool, neq: Edge, eq: Edge) -> Self {
        Node {
            neq_bits: neq.bits(),
            eq_bits: eq.bits(),
            meta: level as u32 | if shannon { META_SHANNON } else { 0 },
        }
    }

    /// The `PV ≠ SV` child (may carry the complement attribute).
    #[inline]
    pub(crate) fn neq(&self) -> Edge {
        Edge::from_bits(self.neq_bits)
    }

    /// The `PV = SV` child (always a regular edge).
    #[inline]
    pub(crate) fn eq(&self) -> Edge {
        Edge::from_bits(self.eq_bits)
    }

    /// Bottom-based CVO level of this node.
    #[inline]
    pub(crate) fn level(&self) -> u16 {
        self.meta as u16
    }

    #[inline]
    pub(crate) fn is_shannon(&self) -> bool {
        self.meta & META_SHANNON != 0
    }

    #[inline]
    pub(crate) fn is_marked(&self) -> bool {
        self.meta & META_MARK != 0
    }

    #[inline]
    pub(crate) fn set_mark(&mut self, on: bool) {
        if on {
            self.meta |= META_MARK;
        } else {
            self.meta &= !META_MARK;
        }
    }

    #[inline]
    pub(crate) fn is_free(&self) -> bool {
        self.meta & META_FREE != 0
    }

    #[inline]
    pub(crate) fn set_free(&mut self, on: bool) {
        if on {
            self.meta |= META_FREE;
        } else {
            self.meta &= !META_FREE;
        }
    }

    /// The three packed words `(neq, eq, meta)` — the record layout the
    /// parallel overlay shares.
    #[inline]
    pub(crate) fn words(&self) -> (u32, u32, u32) {
        (self.neq_bits, self.eq_bits, self.meta)
    }

    /// The unique-table key of this node (level is implied by the subtable).
    #[inline]
    pub(crate) fn key(&self) -> NodeKey {
        NodeKey::new(self.is_shannon(), self.neq(), self.eq())
    }
}

/// The node arena is the unique tables' key store: a stored id's key is
/// its node's key.
impl KeyStore<NodeKey> for Vec<Node> {
    #[inline]
    fn key_of(&self, id: u32) -> NodeKey {
        self[id as usize].key()
    }
}

/// Unique-table key within one level's subtable, packed into one `u64`:
/// `≠`-edge word in the high half, `=`-edge word (bit 0 = mode) in the low
/// half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct NodeKey(u64);

impl NodeKey {
    #[inline]
    pub(crate) fn new(shannon: bool, neq: Edge, eq: Edge) -> Self {
        debug_assert!(!eq.is_complemented(), "canonical =-edges are regular");
        NodeKey(((neq.bits() as u64) << 32) | (eq.bits() as u64) | shannon as u64)
    }

    #[inline]
    pub(crate) fn shannon(self) -> bool {
        self.0 & 1 != 0
    }

    #[inline]
    pub(crate) fn neq(self) -> Edge {
        Edge::from_bits((self.0 >> 32) as u32)
    }

    #[inline]
    pub(crate) fn eq(self) -> Edge {
        Edge::from_bits(self.0 as u32 & !1)
    }
}

impl TableKey for NodeKey {
    #[inline]
    fn table_hash(&self, hasher: &CantorHasher) -> u64 {
        // Nested Cantor pairing over the same tuple elements as the seed
        // (paper §IV-A3): the ≠-attribute travels inside the packed edge
        // word, the mode bit goes in as the third element.
        hasher.hash3(self.0 >> 32, self.0 & 0xFFFF_FFFE, self.0 & 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 12);
    }

    #[test]
    fn node_key_is_8_bytes() {
        assert_eq!(std::mem::size_of::<NodeKey>(), 8);
    }

    #[test]
    fn flags_are_independent() {
        let mut n = Node::new(3, true, Edge::ZERO, Edge::ONE);
        assert!(n.is_shannon());
        assert!(!n.is_marked());
        n.set_mark(true);
        assert!(n.is_marked() && n.is_shannon());
        n.set_free(true);
        assert!(n.is_free() && n.is_marked() && n.is_shannon());
        n.set_mark(false);
        assert!(!n.is_marked() && n.is_free() && n.is_shannon());
        n.set_free(false);
        assert!(!n.is_free());
        assert_eq!(n.level(), 3);
        assert_eq!(n.neq(), Edge::ZERO);
        assert_eq!(n.eq(), Edge::ONE);
    }

    #[test]
    fn key_distinguishes_modes() {
        let bicond = Node::new(3, false, Edge::ZERO, Edge::ONE);
        let shannon = Node::new(3, true, Edge::ZERO, Edge::ONE);
        assert_ne!(bicond.key(), shannon.key());
    }

    #[test]
    fn key_roundtrips_fields() {
        let neq = Edge::new(77, true);
        let eq = Edge::new(12, false);
        for shannon in [false, true] {
            let k = NodeKey::new(shannon, neq, eq);
            assert_eq!(k.shannon(), shannon);
            assert_eq!(k.neq(), neq);
            assert_eq!(k.eq(), eq);
        }
    }
}
