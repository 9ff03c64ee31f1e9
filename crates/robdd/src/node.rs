//! ROBDD node storage and unique-table keys.
//!
//! Mirrors the packed layout of the BBDD package: a [`Node`] is three `u32`
//! words (two child edge words with the complement attribute folded into
//! bit 0, plus a meta word carrying the 16-bit variable index and the
//! mark/free flags), and a [`BddKey`] is one `u64` — the *then*-edge word
//! in the high half and the *else*-edge word in the low half. The key is
//! never stored: the unique tables hold `(cached hash, id)` slots and read
//! a stored node's key from the arena.

use crate::edge::Edge;
use ddcore::cantor::CantorHasher;
use ddcore::table::{KeyStore, TableKey};

pub(crate) const TERMINAL_VAR: u16 = u16::MAX;

const META_MARK: u32 = 1 << 16;
const META_FREE: u32 = 1 << 17;

/// One arena slot: a Shannon node `ite(var, then, else)`, 12 bytes. The
/// *then*-edge is kept regular (canonical complement-attribute convention).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    then_bits: u32,
    else_bits: u32,
    /// `var` in bits 0..16, flags above.
    meta: u32,
}

impl Node {
    pub(crate) fn terminal() -> Self {
        Node {
            then_bits: Edge::ONE.bits(),
            else_bits: Edge::ONE.bits(),
            meta: TERMINAL_VAR as u32,
        }
    }

    pub(crate) fn new(var: u16, then_: Edge, else_: Edge) -> Self {
        Node {
            then_bits: then_.bits(),
            else_bits: else_.bits(),
            meta: var as u32,
        }
    }

    /// The high (`var = 1`) child — always a regular edge.
    #[inline]
    pub(crate) fn then_(&self) -> Edge {
        Edge::from_bits(self.then_bits)
    }

    /// The low (`var = 0`) child.
    #[inline]
    pub(crate) fn else_(&self) -> Edge {
        Edge::from_bits(self.else_bits)
    }

    /// Variable index tested by this node.
    #[inline]
    pub(crate) fn var(&self) -> u16 {
        self.meta as u16
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

    /// The three packed words `(then, else, meta)` — the record layout
    /// the parallel overlay shares.
    #[inline]
    pub(crate) fn words(&self) -> (u32, u32, u32) {
        (self.then_bits, self.else_bits, self.meta)
    }

    #[inline]
    pub(crate) fn key(&self) -> BddKey {
        BddKey::new(self.then_(), self.else_())
    }
}

/// The node arena is the unique tables' key store: a stored id's key is
/// its node's key.
impl KeyStore<BddKey> for Vec<Node> {
    #[inline]
    fn key_of(&self, id: u32) -> BddKey {
        self[id as usize].key()
    }
}

/// Unique-table key within one variable's subtable, packed into one `u64`:
/// *then*-edge word high, *else*-edge word low.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct BddKey(u64);

impl BddKey {
    #[inline]
    pub(crate) fn new(then_: Edge, else_: Edge) -> Self {
        debug_assert!(!then_.is_complemented(), "canonical then-edges are regular");
        BddKey(((then_.bits() as u64) << 32) | else_.bits() as u64)
    }
}

impl TableKey for BddKey {
    #[inline]
    fn table_hash(&self, hasher: &CantorHasher) -> u64 {
        hasher.hash2(self.0 >> 32, self.0 & 0xFFFF_FFFF)
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
    fn bdd_key_is_8_bytes() {
        assert_eq!(std::mem::size_of::<BddKey>(), 8);
    }

    #[test]
    fn mark_and_free_flags() {
        let mut n = Node::new(2, Edge::ONE, Edge::ZERO);
        n.set_mark(true);
        n.set_free(true);
        assert!(n.is_marked() && n.is_free());
        n.set_mark(false);
        assert!(!n.is_marked() && n.is_free());
        assert_eq!(n.var(), 2);
        assert_eq!(n.then_(), Edge::ONE);
        assert_eq!(n.else_(), Edge::ZERO);
    }
}
