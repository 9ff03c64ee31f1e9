//! Cantor-pairing hash functions (paper §IV-A3, Eq. 4).
//!
//! The core hashing function for all BBDD tables is the Cantor pairing
//! function between two integers,
//!
//! ```text
//! C(i, j) = ½ · (i + j) · (i + j + 1) + i
//! ```
//!
//! a bijection `ℕ₀ × ℕ₀ → ℕ₀` (a *perfect* hash on unbounded integers).
//! To fit machine tables, the paper applies a first modulo with a large
//! prime `m` (e.g. `m = 15485863`) "for statistical reasons", then a final
//! modulo with the current table size. Wider tuples are hashed by *nesting*
//! pairings. When collision statistics degrade, the paper re-arranges the
//! nesting order and re-sizes the prime — [`HashArrangement`] captures those
//! degrees of freedom.

/// The large prime used by the paper for the first modulo reduction.
pub const DEFAULT_PRIME: u64 = 15_485_863;

/// Alternative primes cycled through when the hash function is re-arranged
/// (the paper's "re-sizing of the prime number m").
pub const PRIME_POOL: [u64; 4] = [15_485_863, 32_452_843, 49_979_687, 67_867_967];

/// The Cantor pairing of two integers, exact in 128-bit arithmetic.
///
/// # Panics
/// Panics (in debug builds) on overflow when `i + j >= 2^64 - 1`; callers
/// hashing arbitrary 64-bit words should pre-reduce operands (as
/// [`CantorHasher`] does with its prime).
///
/// ```
/// use ddcore::cantor_pair;
/// assert_eq!(cantor_pair(0, 0), 0);
/// assert_eq!(cantor_pair(1, 0), 2);
/// assert_eq!(cantor_pair(0, 1), 1);
/// assert_eq!(cantor_pair(2, 3), 17);
/// ```
#[inline]
pub fn cantor_pair(i: u64, j: u64) -> u128 {
    let s = i as u128 + j as u128;
    s * (s + 1) / 2 + i as u128
}

/// Inverse of [`cantor_pair`] (used in tests to demonstrate bijectivity).
#[inline]
pub fn cantor_unpair(z: u128) -> (u64, u64) {
    // w = floor((sqrt(8z+1) - 1) / 2)
    let w = {
        let mut w = (((8.0 * z as f64 + 1.0).sqrt() - 1.0) / 2.0) as u128;
        // float rounding can be off by one either way; correct exactly
        while (w + 1) * (w + 2) / 2 <= z {
            w += 1;
        }
        while w * (w + 1) / 2 > z {
            w -= 1;
        }
        w
    };
    let t = w * (w + 1) / 2;
    let i = z - t;
    let j = w - i;
    (i as u64, j as u64)
}

/// Order in which a tuple's elements are folded through nested Cantor
/// pairings. Swapping the order "re-arranges the elements in the table"
/// (paper §IV-A3) without changing correctness, because the table always
/// compares full keys on lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashArrangement {
    /// `C(C(a, b), c)` — left-nested, the default.
    #[default]
    LeftNested,
    /// `C(a, C(b, c))` — right-nested alternative.
    RightNested,
    /// `C(C(b, a), c)` — first pair swapped.
    SwappedPair,
}

impl HashArrangement {
    /// The next arrangement in the rotation used when the table adapts.
    #[must_use]
    pub fn next(self) -> Self {
        match self {
            Self::LeftNested => Self::RightNested,
            Self::RightNested => Self::SwappedPair,
            Self::SwappedPair => Self::LeftNested,
        }
    }
}

/// A configurable nested-Cantor hasher for up to four-element tuples.
///
/// The hasher owns the prime `m` and the nesting [`HashArrangement`]; both
/// can be rotated at run time by the adaptive unique table.
#[derive(Debug, Clone, Copy)]
pub struct CantorHasher {
    prime: u64,
    /// `⌊(2^64 − 1) / prime⌋`, the reciprocal [`Self::reduce`] multiplies by.
    recip: u64,
    prime_idx: u8,
    arrangement: HashArrangement,
}

impl Default for CantorHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl CantorHasher {
    /// A hasher with the paper's default prime and left-nested pairing.
    #[must_use]
    pub fn new() -> Self {
        Self {
            prime: DEFAULT_PRIME,
            recip: u64::MAX / DEFAULT_PRIME,
            prime_idx: 0,
            arrangement: HashArrangement::LeftNested,
        }
    }

    /// Currently selected prime `m`.
    #[must_use]
    pub fn prime(&self) -> u64 {
        self.prime
    }

    /// Currently selected nesting arrangement.
    #[must_use]
    pub fn arrangement(&self) -> HashArrangement {
        self.arrangement
    }

    /// Rotate to the next (arrangement, prime) combination. Returns the new
    /// configuration for logging.
    pub fn rearrange(&mut self) -> (HashArrangement, u64) {
        self.arrangement = self.arrangement.next();
        if self.arrangement == HashArrangement::LeftNested {
            self.prime_idx = (self.prime_idx + 1) % PRIME_POOL.len() as u8;
            self.prime = PRIME_POOL[usize::from(self.prime_idx)];
            self.recip = u64::MAX / self.prime;
        }
        (self.arrangement, self.prime)
    }

    /// `n mod m` for any 64-bit `n`, without a division. With
    /// `2^64 − 1 = recip·m + e` (`0 ≤ e < m`), `n·recip / 2^64` equals
    /// `n/m − n·(1 + e) / (m·2^64)`, and the subtracted term lies in
    /// `[0, 1)` because `n < 2^64` and `1 + e ≤ m`. So the estimate
    /// `q̂ = ⌊n·recip / 2^64⌋` is `⌊n/m⌋` or one less, `n − q̂·m` lies in
    /// `[0, 2m)`, and one conditional subtraction finishes the reduction.
    #[inline]
    fn reduce(&self, n: u64) -> u64 {
        let q = ((u128::from(n) * u128::from(self.recip)) >> 64) as u64;
        let r = n - q * self.prime;
        if r >= self.prime {
            r - self.prime
        } else {
            r
        }
    }

    /// Pairing of two *pre-reduced* operands, entirely in 64-bit
    /// arithmetic: every prime in [`PRIME_POOL`] is below 2^27, so
    /// `s = a + b < 2^28` and `s(s+1)/2 + a < 2^56` — no overflow, and the
    /// final modulo is one multiply by the prime's reciprocal
    /// ([`Self::reduce`]). Produces bit-identical values to
    /// `cantor_pair(a, b) % m`.
    #[inline]
    fn pair_reduced(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.prime && b < self.prime);
        let s = a + b;
        self.reduce(((s * (s + 1)) >> 1) + a)
    }

    /// Pre-reduce an arbitrary 64-bit operand below the prime so that the
    /// nested pairings stay in the 64-bit fast path. Mixing in the upper
    /// half keeps wide operands distinguishable after the modulo.
    #[inline]
    fn pre(&self, a: u64) -> u64 {
        if a < self.prime {
            a
        } else {
            self.reduce(self.reduce(a) ^ (a >> 32))
        }
    }

    /// Hash a pair.
    #[inline]
    pub fn hash2(&self, a: u64, b: u64) -> u64 {
        let (a, b) = (self.pre(a), self.pre(b));
        match self.arrangement {
            HashArrangement::SwappedPair => self.pair_reduced(b, a),
            _ => self.pair_reduced(a, b),
        }
    }

    /// Hash a triple by nesting two pairings according to the arrangement.
    #[inline]
    pub fn hash3(&self, a: u64, b: u64, c: u64) -> u64 {
        let (a, b, c) = (self.pre(a), self.pre(b), self.pre(c));
        match self.arrangement {
            HashArrangement::LeftNested => {
                let inner = self.pair_reduced(a, b);
                self.pair_reduced(inner, c)
            }
            HashArrangement::RightNested => {
                let inner = self.pair_reduced(b, c);
                self.pair_reduced(a, inner)
            }
            HashArrangement::SwappedPair => {
                let inner = self.pair_reduced(b, a);
                self.pair_reduced(inner, c)
            }
        }
    }

    /// Hash a quadruple by nesting three pairings.
    #[inline]
    pub fn hash4(&self, a: u64, b: u64, c: u64, d: u64) -> u64 {
        let abc = self.hash3(a, b, c);
        self.pair_reduced(abc, self.pre(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairing_matches_closed_form_small_values() {
        // First few diagonals of the Cantor enumeration.
        let expected: [((u64, u64), u128); 10] = [
            ((0, 0), 0),
            ((0, 1), 1),
            ((1, 0), 2),
            ((0, 2), 3),
            ((1, 1), 4),
            ((2, 0), 5),
            ((0, 3), 6),
            ((1, 2), 7),
            ((2, 1), 8),
            ((3, 0), 9),
        ];
        for ((i, j), z) in expected {
            assert_eq!(cantor_pair(i, j), z, "C({i},{j})");
        }
    }

    #[test]
    fn pairing_is_injective_on_grid() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64u64 {
            for j in 0..64u64 {
                assert!(seen.insert(cantor_pair(i, j)), "collision at ({i},{j})");
            }
        }
    }

    #[test]
    fn unpair_inverts_pair() {
        for i in (0..5000u64).step_by(97) {
            for j in (0..5000u64).step_by(89) {
                assert_eq!(cantor_unpair(cantor_pair(i, j)), (i, j));
            }
        }
    }

    #[test]
    fn paper_example_prime_is_default() {
        assert_eq!(DEFAULT_PRIME, 15485863);
        assert_eq!(CantorHasher::new().prime(), DEFAULT_PRIME);
    }

    #[test]
    fn rearrange_cycles_arrangements_and_primes() {
        let mut h = CantorHasher::new();
        let a0 = h.arrangement();
        let p0 = h.prime();
        h.rearrange();
        assert_ne!(h.arrangement(), a0);
        assert_eq!(
            h.prime(),
            p0,
            "prime only rotates on full arrangement cycle"
        );
        h.rearrange();
        h.rearrange();
        assert_eq!(h.arrangement(), HashArrangement::LeftNested);
        assert_ne!(h.prime(), p0);
    }

    #[test]
    fn arrangements_give_distinct_hashes() {
        let mut h = CantorHasher::new();
        let x0 = h.hash3(12, 34, 56);
        h.rearrange();
        let x1 = h.hash3(12, 34, 56);
        assert_ne!(x0, x1);
    }

    /// `pre` and `pair_reduced` spelled out in `u128` arithmetic from
    /// [`cantor_pair`], independent of how the hasher reduces.
    fn reference(h: &CantorHasher, ops: &[u64]) -> u64 {
        let p = u128::from(h.prime());
        let pre = |a: u64| {
            let a = u128::from(a);
            if a < p {
                a
            } else {
                ((a % p) ^ (a >> 32)) % p
            }
        };
        let pair = |a: u128, b: u128| cantor_pair(a as u64, b as u64) % p;
        let v: Vec<u128> = ops.iter().map(|&a| pre(a)).collect();
        let abc = |a, b, c| match h.arrangement() {
            HashArrangement::LeftNested => pair(pair(a, b), c),
            HashArrangement::RightNested => pair(a, pair(b, c)),
            HashArrangement::SwappedPair => pair(pair(b, a), c),
        };
        let z = match *v.as_slice() {
            [a, b] if h.arrangement() == HashArrangement::SwappedPair => pair(b, a),
            [a, b] => pair(a, b),
            [a, b, c] => abc(a, b, c),
            [a, b, c, d] => pair(abc(a, b, c), d),
            _ => unreachable!(),
        };
        z as u64
    }

    fn check(h: &CantorHasher, [a, b, c, d]: [u64; 4]) {
        let at = |ops: &[u64]| format!("{ops:?} at {:?}/{}", h.arrangement(), h.prime());
        assert_eq!(h.hash2(a, b), reference(h, &[a, b]), "{}", at(&[a, b]));
        assert_eq!(
            h.hash3(a, b, c),
            reference(h, &[a, b, c]),
            "{}",
            at(&[a, b, c])
        );
        assert_eq!(
            h.hash4(a, b, c, d),
            reference(h, &[a, b, c, d]),
            "{}",
            at(&[a, b, c, d])
        );
    }

    /// Pins every hash value the tables see: all 12 (arrangement, prime)
    /// states `rearrange` cycles through, edge operands on both sides of
    /// the prime and of `pre`'s 32-bit fold, and 10^5 seeded operands of
    /// mixed width. Slot placement, probe counts and cache hits all follow
    /// from these values, so any change to the reduction must keep them.
    #[test]
    fn hashes_match_u128_reference_in_every_state() {
        let mut h = CantorHasher::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut rand = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut states = std::collections::HashSet::new();
        for _ in 0..12 {
            assert!(states.insert((h.arrangement() as u8, h.prime())));
            let p = h.prime();
            let edges = [0, p - 1, p, 1 << 27, (1 << 32) - 1, (1 << 56) - 1, u64::MAX];
            for &a in &edges {
                for &b in &edges {
                    for &c in &edges {
                        for &d in &edges {
                            check(&h, [a, b, c, d]);
                        }
                    }
                }
            }
            for _ in 0..100_000 / 12 {
                let mut op = || rand() >> (rand() % 64);
                check(&h, [op(), op(), op(), op()]);
            }
            h.rearrange();
        }
        assert_eq!(states.len(), 12);
        assert_eq!(
            (h.arrangement(), h.prime()),
            (HashArrangement::LeftNested, DEFAULT_PRIME)
        );
    }

    #[test]
    fn reduce_is_exact_across_u64() {
        let mut h = CantorHasher::new();
        for _ in 0..PRIME_POOL.len() {
            let p = h.prime();
            let q_max = u64::MAX / p;
            let mut ns = vec![u64::MAX, u64::MAX - 1, q_max * p, q_max * p - 1];
            for k in [0, 1, 2, 1 << 20, 1 << 36, q_max - 1] {
                ns.extend([k * p, k * p + 1, (k + 1) * p - 1]);
            }
            for n in ns.into_iter().chain((0..64).map(|b| 1u64 << b)) {
                assert_eq!(h.reduce(n), n % p, "{n} mod {p}");
            }
            for _ in 0..3 {
                h.rearrange();
            }
        }
    }

    /// Every unique table, computed cache and shard router embeds a
    /// hasher, and a change of its size alone moves perfbench's
    /// `peak_rss_mb` by heap placement (DESIGN.md "Benchmarks"), so the
    /// size is held here.
    #[test]
    fn hasher_stays_24_bytes() {
        assert_eq!(std::mem::size_of::<CantorHasher>(), 24);
    }

    #[test]
    fn hash_no_overflow_on_large_inputs() {
        let h = CantorHasher::new();
        // Must not panic / wrap incorrectly near u64::MAX.
        let v = h.hash4(u64::MAX, u64::MAX - 1, u64::MAX / 2, 3);
        assert!(v < DEFAULT_PRIME);
    }
}
