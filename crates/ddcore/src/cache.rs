//! The *computed table*: a 2-way set-associative, overwrite-on-collision
//! cache of performed Boolean operations (paper §IV-A3: "in the computed
//! table, the cache-like approach overwrites an entry when collision
//! occurs").
//!
//! Entries are keyed by two 64-bit operand words plus a small operation tag,
//! which is wide enough for binary `apply` (two edges + operator truth
//! table) and ternary `ite` (edge + two packed edges). Each set holds two
//! 32-byte slots in one 64-byte-aligned cache line (so a lookup touches
//! exactly one line whatever address the allocator hands out), and a
//! one-bit insertion age (stored in a spare tag bit of the set's first
//! way, so no extra memory is touched) picks the victim on collision: a
//! recent result is no longer destroyed
//! by a single conflicting insert, the failure mode of the seed's
//! direct-mapped cache. The cache grows geometrically while it is being
//! used productively, up to a cap.

use crate::cantor::CantorHasher;

#[derive(Debug, Clone, Copy)]
struct Slot {
    k1: u64,
    k2: u64,
    tag: u32,
    epoch: u32,
    val: u64,
}

const EMPTY_TAG: u32 = u32::MAX;

/// Spare bit in way 0's stored tag recording which way is older (set =
/// way 0 was written before way 1). Caller tags must stay below this bit.
const AGE_BIT: u32 = 1 << 30;
/// Mask clearing only the age bit. Bit 31 is deliberately kept: an empty
/// slot's tag (`u32::MAX`) must never compare equal to a caller tag, and
/// legal tags have bit 31 clear.
const TAG_MASK: u32 = !AGE_BIT;

const EMPTY_SLOT: Slot = Slot {
    k1: 0,
    k2: 0,
    tag: EMPTY_TAG,
    epoch: 0,
    val: 0,
};

/// One 2-way set: two 32-byte slots aligned to a 64-byte cache line. A
/// `Vec<Slot>` is only 8-byte aligned, and large allocations commonly
/// start 16 bytes past a line boundary, which would make every set
/// straddle two lines.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Set([Slot; 2]);

const EMPTY_SET: Set = Set([EMPTY_SLOT; 2]);

/// Hit/miss/eviction counters for one computed table.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Lookup operations performed.
    pub lookups: u64,
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Results recorded.
    pub inserts: u64,
    /// Inserts that overwrote a *live* entry (both ways occupied).
    pub evictions: u64,
    /// Epoch bumps (whole-cache invalidations after GC).
    pub invalidations: u64,
}

impl CacheStats {
    /// Lookups that missed.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.lookups - self.hits
    }

    /// Lifetime hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Two-way set-associative computed table.
///
/// ```
/// use ddcore::ComputedCache;
/// let mut c = ComputedCache::new(1 << 8);
/// c.insert(1, 2, 3, 99);
/// assert_eq!(c.get(1, 2, 3), Some(99));
/// assert_eq!(c.get(1, 2, 4), None);
/// ```
#[derive(Debug, Clone)]
pub struct ComputedCache {
    /// The 2-way sets; a power of two of them.
    sets: Vec<Set>,
    hasher: CantorHasher,
    epoch: u32,
    stats: CacheStats,
    inserts_since_resize: u64,
    max_slots: usize,
}

impl Default for ComputedCache {
    fn default() -> Self {
        Self::new(1 << 14)
    }
}

impl ComputedCache {
    /// Hard cap on cache size (slots); 2^22 slots ≈ 128 MiB.
    pub const DEFAULT_MAX_SLOTS: usize = 1 << 22;

    /// Create a cache with `slots` entries (rounded up to a power of two,
    /// minimum 16).
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(16);
        Self {
            sets: vec![EMPTY_SET; n / 2],
            hasher: CantorHasher::new(),
            epoch: 0,
            stats: CacheStats::default(),
            inserts_since_resize: 0,
            max_slots: Self::DEFAULT_MAX_SLOTS,
        }
    }

    /// Create a cache with a custom growth cap (used by the ablation bench).
    #[must_use]
    pub fn with_max(slots: usize, max_slots: usize) -> Self {
        let mut c = Self::new(slots);
        c.max_slots = max_slots.next_power_of_two();
        c
    }

    /// Heap bytes the cache holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.sets.capacity() * std::mem::size_of::<Set>()
    }

    /// Number of slots currently allocated.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.sets.len() * 2
    }

    /// Hit/miss/eviction counters since creation.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Lifetime hit rate.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        self.stats.hit_rate()
    }

    /// Index of the set a key maps to.
    #[inline]
    fn set_base(&self, k1: u64, k2: u64, tag: u32) -> usize {
        self.hasher.hash3(k1, k2, tag as u64) as usize & (self.sets.len() - 1)
    }

    /// Look up a previously computed result.
    #[inline]
    pub fn get(&mut self, k1: u64, k2: u64, tag: u32) -> Option<u64> {
        self.stats.lookups += 1;
        let set = &self.sets[self.set_base(k1, k2, tag)].0;
        let epoch = self.epoch;
        let s0 = &set[0];
        if s0.tag & TAG_MASK == tag && s0.epoch == epoch && s0.k1 == k1 && s0.k2 == k2 {
            self.stats.hits += 1;
            crate::obs::cache_access(tag, true);
            return Some(s0.val);
        }
        let s1 = &set[1];
        if s1.tag == tag && s1.epoch == epoch && s1.k1 == k1 && s1.k2 == k2 {
            self.stats.hits += 1;
            crate::obs::cache_access(tag, true);
            return Some(s1.val);
        }
        crate::obs::cache_access(tag, false);
        None
    }

    /// Record a computed result. Prefers an empty or stale way; otherwise
    /// evicts the way that was written longer ago (the set's age bit).
    ///
    /// # Panics
    /// Panics if `tag >= 2^30` (the top tag bits are reserved).
    #[inline]
    pub fn insert(&mut self, k1: u64, k2: u64, tag: u32, val: u64) {
        assert!(tag < AGE_BIT, "tags above 2^30 are reserved");
        let epoch = self.epoch;
        let i = self.set_base(k1, k2, tag);
        let set = &mut self.sets[i].0;
        let way0 = set[0];
        let way = if way0.tag == EMPTY_TAG || way0.epoch != epoch {
            0
        } else {
            let way1 = &set[1];
            if way1.tag == EMPTY_TAG || way1.epoch != epoch {
                1
            } else {
                self.stats.evictions += 1;
                usize::from(way0.tag & AGE_BIT == 0)
            }
        };
        // Writing way 0 makes it the newer way (age bit clear); writing
        // way 1 makes way 0 the older one.
        set[way] = Slot {
            k1,
            k2,
            tag,
            epoch,
            val,
        };
        if way == 1 && way0.tag != EMPTY_TAG {
            set[0].tag = way0.tag | AGE_BIT;
        }
        self.stats.inserts += 1;
        self.inserts_since_resize += 1;
        if self.inserts_since_resize > 4 * self.capacity() as u64
            && self.capacity() < self.max_slots
        {
            self.grow();
        }
    }

    /// Invalidate every entry (mandatory after garbage collection, because
    /// freed node ids may be re-used). O(1): bumps the cache epoch; stale
    /// entries die lazily on lookup.
    pub fn invalidate(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        self.inserts_since_resize = 0;
        self.stats.invalidations += 1;
    }

    fn grow(&mut self) {
        let new_len = self.sets.len() * 2;
        let old = std::mem::replace(&mut self.sets, vec![EMPTY_SET; new_len]);
        let epoch = self.epoch;
        for mut s in old.into_iter().flat_map(|set| set.0) {
            if s.tag != EMPTY_TAG && s.epoch == epoch {
                s.tag &= !AGE_BIT;
                let i = self.set_base(s.k1, s.k2, s.tag);
                let set = &mut self.sets[i].0;
                let way = usize::from(set[0].tag != EMPTY_TAG && set[0].epoch == epoch);
                if way == 1 {
                    set[0].tag |= AGE_BIT;
                }
                set[way] = s;
            }
        }
        self.inserts_since_resize = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_are_cache_line_aligned() {
        assert_eq!(std::mem::size_of::<Set>(), 64);
        for slots in [16usize, 1 << 14, 1 << 19] {
            let c = ComputedCache::new(slots);
            assert_eq!(c.sets.as_ptr() as usize % 64, 0, "{slots} slots");
            assert_eq!(c.capacity(), slots);
        }
    }

    #[test]
    fn get_insert_roundtrip() {
        let mut c = ComputedCache::new(64);
        for i in 0..1000u64 {
            c.insert(i, i * 3, (i % 7) as u32, i + 42);
        }
        // Set-associative overwrite-on-collision: *some* entries survive;
        // whatever survives is correct.
        let mut survived = 0;
        for i in 0..1000u64 {
            if let Some(v) = c.get(i, i * 3, (i % 7) as u32) {
                assert_eq!(v, i + 42);
                survived += 1;
            }
        }
        assert!(survived > 0);
    }

    #[test]
    fn collision_overwrites_not_chains() {
        let mut c = ComputedCache::with_max(16, 16);
        // Fill far beyond capacity; the cache must stay at 16 slots.
        for i in 0..10_000u64 {
            c.insert(i, i, 1, i);
        }
        assert_eq!(c.capacity(), 16);
        assert!(c.stats().evictions > 0, "full sets must evict");
    }

    #[test]
    fn grows_when_hot() {
        let mut c = ComputedCache::new(16);
        for i in 0..100_000u64 {
            c.insert(i, i ^ 0x5555, 2, i);
        }
        assert!(c.capacity() > 16);
    }

    #[test]
    fn invalidate_clears_everything() {
        let mut c = ComputedCache::new(64);
        c.insert(1, 2, 3, 4);
        assert_eq!(c.get(1, 2, 3), Some(4));
        c.invalidate();
        assert_eq!(c.get(1, 2, 3), None);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn distinct_tags_do_not_alias() {
        let mut c = ComputedCache::new(1 << 10);
        c.insert(7, 8, 1, 100);
        c.insert(7, 8, 2, 200);
        // Either both live (different slots) or the later overwrote the
        // earlier (same slot) — but a hit must never return the wrong tag's
        // value.
        if let Some(v) = c.get(7, 8, 1) {
            assert_eq!(v, 100);
        }
        assert_eq!(c.get(7, 8, 2), Some(200));
    }

    #[test]
    fn two_way_keeps_conflicting_pair_alive() {
        // Two keys forced into the same set must both survive — the seed's
        // direct-mapped cache lost one of them.
        let mut c = ComputedCache::with_max(16, 16);
        let mut pair: Option<(u64, u64)> = None;
        'outer: for a in 0..64u64 {
            for b in (a + 1)..64u64 {
                let probe = ComputedCache::with_max(16, 16);
                if probe.set_base(a, a, 1) == probe.set_base(b, b, 1) {
                    pair = Some((a, b));
                    break 'outer;
                }
            }
        }
        let (a, b) = pair.expect("some pair must collide in 8 sets");
        c.insert(a, a, 1, 10);
        c.insert(b, b, 1, 20);
        assert_eq!(c.get(a, a, 1), Some(10));
        assert_eq!(c.get(b, b, 1), Some(20));
    }

    #[test]
    fn empty_slots_never_alias_a_legal_tag() {
        // Regression: an empty slot's tag is u32::MAX; masking the age bit
        // out of way 0's stored tag must not make it equal a legal caller
        // tag (the largest one is AGE_BIT - 1).
        let mut c = ComputedCache::new(64);
        for k in 0..64u64 {
            assert_eq!(c.get(k, k, AGE_BIT - 1), None, "false hit on empty slot");
        }
        c.insert(3, 4, AGE_BIT - 1, 77);
        assert_eq!(c.get(3, 4, AGE_BIT - 1), Some(77));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let mut c = ComputedCache::new(64);
        c.insert(1, 2, 3, 4);
        assert_eq!(c.get(1, 2, 3), Some(4));
        assert_eq!(c.get(9, 9, 3), None);
        let s = c.stats();
        assert_eq!(s.lookups, 2);
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses(), 1);
        assert_eq!(s.inserts, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
