//! The adaptive hash tables backing the *unique tables* of both
//! decision-diagram packages (paper §IV-A1, §IV-A3).
//!
//! The tables are *key-less*: they store node ids only, and the key of a
//! stored id — the paper's tuple {CVO-level, ≠-child, ≠-attribute,
//! =-child} — lives once, in the owner's node arena. Every operation that
//! needs a key reads it through a [`KeyStore`] the caller passes in.
//!
//! Two implementations share one API and the paper's adaptive behaviour:
//! resize on load, and when a window of lookups averages more probes than
//! the load alone explains — the mark of a hash that clusters keys —
//! rotate the Cantor-pairing nesting order and reduction prime, then
//! rehash through the key store:
//!
//! * [`OpenTable`] — the default: an open-addressed linear-probing table
//!   of 8-byte `(cached hash, id)` slots, so a probe sequence is one
//!   compact memory stream instead of a pointer chase, and a hash match
//!   costs one read of the node it names. Deletion is *adaptive*: large
//!   tables backward-shift eagerly (no tombstones, probe sequences never
//!   grow stale); small L1-resident tables defer hole repair to a batched
//!   sweep, which keeps the per-swap GC sweeps that sifting issues cheap
//!   on tiny subtables.
//! * [`BucketTable`] — the seed implementation: per-bucket linked lists
//!   threaded through a side array of `{id, next}` entries. Kept for the
//!   `chained_tables` ablation feature and the `tables_ablation` bench.
//!
//! [`UniqueTable`] aliases the implementation selected by the feature flag;
//! the managers build against the alias.

use crate::cantor::CantorHasher;
use crate::stats::TableStats;

/// Sentinel for "no entry" in bucket chains and open-addressed slots.
pub const NIL: u32 = u32::MAX;

/// Keys looked up in a unique table must expose Cantor-hashable content.
pub trait TableKey: Copy + Eq {
    /// Hash the key with the table's current hasher configuration.
    fn table_hash(&self, hasher: &CantorHasher) -> u64;
}

/// Where a key-less table reads the key of a stored id: the owner's node
/// arena (a manager's `Vec<Node>`, the parallel overlay's records, or a
/// plain `Vec<K>` indexed by id).
pub trait KeyStore<K> {
    /// The key of stored id `id`.
    fn key_of(&self, id: u32) -> K;
}

impl<K: TableKey> KeyStore<K> for Vec<K> {
    #[inline]
    fn key_of(&self, id: u32) -> K {
        self[id as usize]
    }
}

impl<K, A: KeyStore<K> + ?Sized> KeyStore<K> for &A {
    #[inline]
    fn key_of(&self, id: u32) -> K {
        (**self).key_of(id)
    }
}

/// The unique-table implementation managers compile against: the
/// open-addressed [`OpenTable`] by default, the chained [`BucketTable`]
/// under the `chained_tables` feature (ablation baseline).
#[cfg(not(feature = "chained_tables"))]
pub type UniqueTable = OpenTable;

/// The unique-table implementation managers compile against (chained
/// variant selected).
#[cfg(feature = "chained_tables")]
pub type UniqueTable = BucketTable;

#[derive(Debug, Clone, Copy)]
struct Entry {
    id: u32,
    next: u32,
}

/// A chained hash set of node ids with Cantor-pairing hashing of the
/// keys a [`KeyStore`] derives from them, and adaptive resize/rearrange
/// behaviour.
///
/// ```
/// use ddcore::table::{BucketTable, TableKey};
/// use ddcore::cantor::CantorHasher;
///
/// #[derive(Clone, Copy, PartialEq, Eq)]
/// struct Pair(u32, u32);
/// impl TableKey for Pair {
///     fn table_hash(&self, h: &CantorHasher) -> u64 {
///         h.hash2(self.0 as u64, self.1 as u64)
///     }
/// }
///
/// let keys = vec![Pair(1, 2), Pair(3, 4)]; // id = index
/// let mut t = BucketTable::new(4);
/// t.insert(0, &keys);
/// assert_eq!(t.get(&Pair(1, 2), &keys), Some(0));
/// assert_eq!(t.get(&Pair(3, 4), &keys), None);
/// ```
#[derive(Debug, Clone)]
pub struct BucketTable {
    buckets: Vec<u32>,
    entries: Vec<Entry>,
    free: u32,
    len: usize,
    hasher: CantorHasher,
    stats: TableStats,
    /// Rearrangement is only attempted when resizing alone did not help;
    /// this latch avoids thrashing.
    probes_since_adapt: u64,
    lookups_since_adapt: u64,
}

impl Default for BucketTable {
    fn default() -> Self {
        Self::new(64)
    }
}

impl BucketTable {
    /// Chain length (probes per lookup) above which the table adapts.
    const ADAPT_PROBE_THRESHOLD: f64 = 4.0;
    /// Minimum lookups in a window before adaptation decisions are made.
    const ADAPT_WINDOW: u64 = 4096;

    /// Create a table with at least `initial_buckets` buckets.
    #[must_use]
    pub fn new(initial_buckets: usize) -> Self {
        let n = initial_buckets.next_power_of_two().max(4);
        Self {
            buckets: vec![NIL; n],
            entries: Vec::new(),
            free: NIL,
            len: 0,
            hasher: CantorHasher::new(),
            stats: TableStats::default(),
            probes_since_adapt: 0,
            lookups_since_adapt: 0,
        }
    }

    /// Number of ids stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the collision/access statistics.
    #[must_use]
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The hasher currently in use (exposed for diagnostics and benches).
    #[must_use]
    pub fn hasher(&self) -> &CantorHasher {
        &self.hasher
    }

    /// Heap bytes the table holds (allocated capacity, not occupancy).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.buckets.capacity() * std::mem::size_of::<u32>()
            + self.entries.capacity() * std::mem::size_of::<Entry>()
    }

    #[inline]
    fn bucket_of<K: TableKey>(&self, key: &K) -> usize {
        // First modulo with the big prime happens inside the hasher; the
        // final modulo resizes the result to the current table size, a
        // power of two, so it is a mask.
        debug_assert!(self.buckets.len().is_power_of_two());
        key.table_hash(&self.hasher) as usize & (self.buckets.len() - 1)
    }

    /// Look up `key`, returning the stored id whose key it is.
    pub fn get<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, key: &K, keys: &A) -> Option<u32> {
        let b = self.bucket_of(key);
        let found = self.walk_chain(b, key, keys);
        if found.is_some() {
            self.stats.hits += 1;
        }
        found
    }

    /// Walk bucket `b`'s chain for `key`, counting the lookup and its
    /// probes.
    #[inline]
    fn walk_chain<K: TableKey, A: KeyStore<K> + ?Sized>(
        &mut self,
        b: usize,
        key: &K,
        keys: &A,
    ) -> Option<u32> {
        let mut cur = self.buckets[b];
        let mut probes = 1u64;
        self.stats.lookups += 1;
        self.lookups_since_adapt += 1;
        while cur != NIL {
            let e = self.entries[cur as usize];
            if keys.key_of(e.id) == *key {
                self.stats.probes += probes;
                self.probes_since_adapt += probes;
                return Some(e.id);
            }
            probes += 1;
            cur = e.next;
        }
        self.stats.probes += probes;
        self.probes_since_adapt += probes;
        None
    }

    /// Read-only lookup: no statistics, no adaptation. This is the probe
    /// the parallel managers use against a *frozen* base table shared
    /// across worker threads (`&self` access is safe to run concurrently).
    #[must_use]
    pub fn peek<K: TableKey, A: KeyStore<K> + ?Sized>(&self, key: &K, keys: &A) -> Option<u32> {
        let mut cur = self.buckets[self.bucket_of(key)];
        while cur != NIL {
            let e = self.entries[cur as usize];
            if keys.key_of(e.id) == *key {
                return Some(e.id);
            }
            cur = e.next;
        }
        None
    }

    /// Combined lookup-or-insert: walks the chain once, calling `make`
    /// only on a miss; `make` stores the new node in `keys` and returns
    /// its id. Equivalent to `get` followed by `insert`, but the key is
    /// hashed a single time — the shape of `make_node`'s hot path.
    pub fn get_or_insert_with<K: TableKey, A: KeyStore<K> + ?Sized>(
        &mut self,
        key: K,
        keys: &mut A,
        make: impl FnOnce(&mut A) -> u32,
    ) -> u32 {
        if self.len >= self.buckets.len() {
            self.grow(keys);
        }
        let b = self.bucket_of(&key);
        if let Some(id) = self.walk_chain(b, &key, keys) {
            self.stats.hits += 1;
            return id;
        }
        let id = make(keys);
        self.link(b, id);
        self.maybe_adapt(keys);
        id
    }

    /// Insert stored id `id`, whose key `keys` must already hold. The
    /// caller must ensure the key is not already present (unique-table
    /// discipline: always `get` first).
    pub fn insert<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, id: u32, keys: &A) {
        if self.len >= self.buckets.len() {
            self.grow(keys);
        }
        let b = self.bucket_of(&keys.key_of(id));
        self.link(b, id);
        self.maybe_adapt(keys);
    }

    /// Push `id` onto bucket `b`'s chain, reusing a freed entry first.
    fn link(&mut self, b: usize, id: u32) {
        let next = self.buckets[b];
        let slot = if self.free != NIL {
            let s = self.free;
            self.free = self.entries[s as usize].next;
            self.entries[s as usize] = Entry { id, next };
            s
        } else {
            self.entries.push(Entry { id, next });
            (self.entries.len() - 1) as u32
        };
        self.buckets[b] = slot;
        self.len += 1;
    }

    /// Remove stored id `id` (its key is read from `keys`, which must
    /// still hold it). Returns whether it was present.
    pub fn remove<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, id: u32, keys: &A) -> bool {
        let b = self.bucket_of(&keys.key_of(id));
        let mut cur = self.buckets[b];
        let mut prev = NIL;
        while cur != NIL {
            let e = self.entries[cur as usize];
            if e.id == id {
                if prev == NIL {
                    self.buckets[b] = e.next;
                } else {
                    self.entries[prev as usize].next = e.next;
                }
                self.entries[cur as usize].next = self.free;
                self.free = cur;
                self.len -= 1;
                return true;
            }
            prev = cur;
            cur = e.next;
        }
        false
    }

    /// Keep only the ids for which `keep(keys, id)` holds
    /// (garbage-collection sweep). Shrinks the bucket array when occupancy
    /// drops far below capacity, so repeated sweeps stay proportional to
    /// the live size rather than the high-water mark; the shrink rehashes
    /// the survivors through `keys`. Either way the entry array is
    /// compacted to the survivors.
    pub fn retain<K: TableKey, A: KeyStore<K> + ?Sized>(
        &mut self,
        keys: &mut A,
        mut keep: impl FnMut(&mut A, u32) -> bool,
    ) {
        for b in 0..self.buckets.len() {
            let mut cur = self.buckets[b];
            let mut prev = NIL;
            while cur != NIL {
                let e = self.entries[cur as usize];
                if keep(keys, e.id) {
                    prev = cur;
                } else {
                    if prev == NIL {
                        self.buckets[b] = e.next;
                    } else {
                        self.entries[prev as usize].next = e.next;
                    }
                    self.entries[cur as usize].next = self.free;
                    self.free = cur;
                    self.len -= 1;
                }
                cur = e.next;
            }
        }
        if self.buckets.len() > 64 && self.len * 4 < self.buckets.len() {
            let target = (self.len * 2).next_power_of_two().max(64);
            self.rebuild(target, keys);
        } else if self.entries.len() > self.len {
            self.compact();
        }
    }

    /// Copy the live entries into an exactly-sized array, every chain in
    /// its current order, and empty the free list: a sweep returns the
    /// memory of the entries it freed.
    fn compact(&mut self) {
        let old = std::mem::replace(&mut self.entries, Vec::with_capacity(self.len));
        self.free = NIL;
        for b in 0..self.buckets.len() {
            let mut cur = self.buckets[b];
            let mut tail = NIL;
            while cur != NIL {
                let e = old[cur as usize];
                let i = self.entries.len() as u32;
                self.entries.push(Entry {
                    id: e.id,
                    next: NIL,
                });
                if tail == NIL {
                    self.buckets[b] = i;
                } else {
                    self.entries[tail as usize].next = i;
                }
                tail = i;
                cur = e.next;
            }
        }
    }

    /// Visit every stored id (order unspecified).
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for b in 0..self.buckets.len() {
            let mut cur = self.buckets[b];
            while cur != NIL {
                let e = &self.entries[cur as usize];
                f(e.id);
                cur = e.next;
            }
        }
    }

    /// Collect all stored ids.
    #[must_use]
    pub fn ids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|id| out.push(id));
        out
    }

    /// Drop all entries, keeping allocation and hasher configuration.
    pub fn clear(&mut self) {
        self.buckets.fill(NIL);
        self.entries.clear();
        self.free = NIL;
        self.len = 0;
    }

    fn grow<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, keys: &A) {
        let new_size = (self.buckets.len() * 2).max(4);
        self.rebuild(new_size, keys);
        self.stats.resizes += 1;
    }

    /// The adaptive step: if after the last resize the average chain length
    /// in the current window still exceeds the threshold, rotate the hash
    /// arrangement / prime and rehash (paper §IV-A3: "the hash-function is
    /// automatically modified to re-arrange the elements in the table").
    fn maybe_adapt<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, keys: &A) {
        if self.lookups_since_adapt < Self::ADAPT_WINDOW {
            return;
        }
        let avg = self.probes_since_adapt as f64 / self.lookups_since_adapt as f64;
        self.probes_since_adapt = 0;
        self.lookups_since_adapt = 0;
        if avg > Self::ADAPT_PROBE_THRESHOLD && self.len <= self.buckets.len() {
            self.hasher.rearrange();
            self.rebuild(self.buckets.len(), keys);
            self.stats.rearrangements += 1;
        }
    }

    /// Re-link every live entry into new bucket and entry arrays (the
    /// entries compacted, the free list emptied), hashing the keys `keys`
    /// derives from the stored ids. Chains are rebuilt in the old
    /// bucket-then-chain order, so a shrink returns memory without moving
    /// any entry's chain position relative to a rebuild in place.
    fn rebuild<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, new_size: usize, keys: &A) {
        let old_buckets = std::mem::replace(&mut self.buckets, vec![NIL; new_size]);
        let old_entries = std::mem::replace(&mut self.entries, Vec::with_capacity(self.len));
        self.free = NIL;
        for head in old_buckets {
            let mut cur = head;
            while cur != NIL {
                let e = old_entries[cur as usize];
                let b = self.bucket_of(&keys.key_of(e.id));
                self.entries.push(Entry {
                    id: e.id,
                    next: self.buckets[b],
                });
                self.buckets[b] = (self.entries.len() - 1) as u32;
                cur = e.next;
            }
        }
    }
}

/// Marker bit keeping cached hashes nonzero (`0` = empty slot).
const HASH_TAG: u32 = 1 << 31;

/// Cached-hash value of a *deferred* deletion: probe sequences scan
/// through it (unlike an empty slot), inserts may reuse it, and a batched
/// sweep eventually compacts it away. Distinguishable from both empty
/// (`0`) and live slots (which carry [`HASH_TAG`]).
const TOMBSTONE: u32 = 1;

/// Is a cached-hash value a live entry?
#[inline]
fn live(hash: u32) -> bool {
    hash & HASH_TAG != 0
}

/// One open-addressed slot: the decorated 32-bit hash of the stored key
/// (`0` = empty, [`TOMBSTONE`] = deferred deletion) and the stored id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    hash: u32,
    id: u32,
}

const EMPTY: Slot = Slot { hash: 0, id: NIL };

/// An open-addressed linear-probing hash set of node ids with
/// Cantor-pairing hashing of the keys a [`KeyStore`] derives from them,
/// and the same adaptive resize/rearrange behaviour as [`BucketTable`].
///
/// Each slot is 8 bytes — the decorated hash of the stored key and the
/// stored id — so eight slots share a cache line. A probe reads only
/// slots until a cached hash matches; only then does it read the key,
/// from the node the id names. Growth, shrink and rearrangement copy the
/// live slots into a newly allocated array (by cached hash, or through
/// the key store after a rearrangement), so a shrink returns its memory
/// and no rebuild buffer is kept.
///
/// Deletion adapts to the table's size: past
/// [`OpenTable::DEFER_REPAIR_MAX_CAP`] slots the displaced run following a
/// hole is backward-shifted immediately (tombstone-free, probe sequences
/// never grow stale); at or below it — where the slot array is
/// L1-resident and repair work dominates the probes it saves — deletions
/// tombstone the slot, and hole repair is batched: the GC sweep compacts
/// all accumulated tombstones once they reach half of capacity, the
/// insert paths reuse and recycle them under load, and a drain backstop
/// bounds remove-only workloads.
///
/// ```
/// use ddcore::table::{OpenTable, TableKey};
/// use ddcore::cantor::CantorHasher;
///
/// #[derive(Clone, Copy, PartialEq, Eq)]
/// struct Pair(u32, u32);
/// impl TableKey for Pair {
///     fn table_hash(&self, h: &CantorHasher) -> u64 {
///         h.hash2(self.0 as u64, self.1 as u64)
///     }
/// }
///
/// let mut keys: Vec<Pair> = Vec::new(); // the node arena: id = index
/// let mut t = OpenTable::new(4);
/// let make = |keys: &mut Vec<Pair>| {
///     keys.push(Pair(1, 2));
///     keys.len() as u32 - 1
/// };
/// let id = t.get_or_insert_with(Pair(1, 2), &mut keys, make);
/// assert_eq!(t.get_or_insert_with(Pair(1, 2), &mut keys, make), id);
/// assert_eq!(t.get(&Pair(1, 2), &keys), Some(id));
/// assert_eq!(t.get(&Pair(2, 1), &keys), None);
/// ```
#[derive(Debug, Clone)]
pub struct OpenTable {
    /// `(cached hash, id)` per slot; capacity is always a power of two.
    slots: Vec<Slot>,
    /// `slots.len() - 1`.
    mask: usize,
    len: usize,
    hasher: CantorHasher,
    stats: TableStats,
    probes_since_adapt: u64,
    lookups_since_adapt: u64,
    /// Reused punched-hole index buffer for [`OpenTable::retain`]'s
    /// sparse-death fast path, so the per-swap GC sweeps issued by
    /// sifting allocate nothing in steady state. It records at most
    /// capacity/8 holes — past that the sweep takes the whole-table path.
    holes: Vec<u32>,
    /// Deferred deletions currently marked [`TOMBSTONE`] (only ever
    /// non-zero while the table is small enough for the deferred-repair
    /// regime; see [`OpenTable::DEFER_REPAIR_MAX_CAP`]).
    tombstones: usize,
}

impl Default for OpenTable {
    fn default() -> Self {
        Self::new(64)
    }
}

impl OpenTable {
    /// The load factor past which an insert doubles the slot array:
    /// `GROW_LOAD_NUM / GROW_LOAD_DEN`, 3/4.
    const GROW_LOAD_NUM: usize = 3;
    const GROW_LOAD_DEN: usize = 4;
    /// Probe length (per lookup, averaged over a window) above which the
    /// table rotates its hash. With a uniform hash, linear probing already
    /// costs ½(1 + 1/(1 − α)²) probes per miss at load α (Knuth): 6.05 at
    /// α = 0.70 and 8.5 at the 3/4 grow load, so a miss-heavy window just
    /// below the grow point reads that much with nothing wrong with the
    /// hash. The threshold is twice that miss cost at the grow load,
    /// 1 + 1/(1 − 3/4)² = 17: a window only averages more when the hash
    /// clusters keys into runs far longer than the load explains.
    const ADAPT_PROBE_THRESHOLD: f64 = {
        let free = 1.0 - Self::GROW_LOAD_NUM as f64 / Self::GROW_LOAD_DEN as f64;
        1.0 + 1.0 / (free * free)
    };
    /// Minimum lookups in a window before adaptation decisions are made.
    const ADAPT_WINDOW: u64 = 4096;
    /// Slot-array capacity at or below which deletions are *deferred*: the
    /// slot becomes a tombstone instead of triggering backward-shift /
    /// hole-repair work, and a batched sweep compacts the table once
    /// tombstones reach half of capacity. At 4096 slots the array is
    /// 32 KiB — L1-resident — where probing through a few tombstones is
    /// nearly free while per-deletion repair measurably is not (the
    /// `sift robdd/misex1` regression root-caused in DESIGN.md). Larger
    /// tables keep the eager tombstone-free scheme, which wins once probe
    /// runs leave L1.
    pub const DEFER_REPAIR_MAX_CAP: usize = 4096;
    /// Tombstone fraction (1/`SWEEP_TOMBSTONE_DIV` of capacity) that
    /// triggers the batched compaction sweep — half of capacity; sweeping
    /// more often than the GC cadence was measured to cost more than the
    /// repairs it saves (see DESIGN.md).
    const SWEEP_TOMBSTONE_DIV: usize = 2;

    /// Create a table with room for at least `initial_capacity` entries
    /// before the first resize.
    #[must_use]
    pub fn new(initial_capacity: usize) -> Self {
        let n = (initial_capacity.max(4) * Self::GROW_LOAD_DEN / Self::GROW_LOAD_NUM)
            .next_power_of_two()
            .max(8);
        Self {
            slots: vec![EMPTY; n],
            mask: n - 1,
            len: 0,
            hasher: CantorHasher::new(),
            stats: TableStats::default(),
            probes_since_adapt: 0,
            lookups_since_adapt: 0,
            holes: Vec::new(),
            tombstones: 0,
        }
    }

    /// Number of ids stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the table holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access the collision/access statistics.
    #[must_use]
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The hasher currently in use (exposed for diagnostics and benches).
    #[must_use]
    pub fn hasher(&self) -> &CantorHasher {
        &self.hasher
    }

    /// Heap bytes the table holds (allocated capacity, not occupancy).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.holes.capacity() * std::mem::size_of::<u32>()
    }

    /// Decorate the (possibly 64-bit) Cantor hash into the nonzero 32-bit
    /// form cached in a slot. Cantor hashes are already `< m < 2^32`, so
    /// the fold is lossless for them.
    #[inline]
    fn fold(h: u64) -> u32 {
        ((h ^ (h >> 32)) as u32) | HASH_TAG
    }

    /// The cached-hash form of `key` under the current hasher.
    #[inline]
    fn hash_of<K: TableKey>(&self, key: &K) -> u32 {
        Self::fold(key.table_hash(&self.hasher))
    }

    /// Home slot of a decorated hash: a Fibonacci multiply spreads the
    /// prime-bounded Cantor range over all power-of-two capacities (a bare
    /// modulo would leave slots beyond the prime permanently cold).
    #[inline]
    fn home(&self, h: u32) -> usize {
        (((h as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    #[inline]
    fn count_lookup(&mut self, probes: u64) {
        self.stats.lookups += 1;
        self.stats.probes += probes;
        self.lookups_since_adapt += 1;
        self.probes_since_adapt += probes;
    }

    /// Look up `key`, returning the stored id whose key it is.
    pub fn get<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, key: &K, keys: &A) -> Option<u32> {
        let h = self.hash_of(key);
        let mut i = self.home(h);
        let mut probes = 1u64;
        loop {
            let s = self.slots[i];
            if s.hash == 0 {
                break;
            }
            if s.hash == h && keys.key_of(s.id) == *key {
                self.count_lookup(probes);
                self.stats.hits += 1;
                return Some(s.id);
            }
            i = (i + 1) & self.mask;
            probes += 1;
        }
        self.count_lookup(probes);
        None
    }

    /// Read-only lookup: no statistics, no adaptation. This is the probe
    /// the parallel managers use against a *frozen* base table shared
    /// across worker threads (`&self` access is safe to run concurrently).
    #[must_use]
    pub fn peek<K: TableKey, A: KeyStore<K> + ?Sized>(&self, key: &K, keys: &A) -> Option<u32> {
        let h = self.hash_of(key);
        let mut i = self.home(h);
        loop {
            let s = self.slots[i];
            if s.hash == 0 {
                return None;
            }
            if s.hash == h && keys.key_of(s.id) == *key {
                return Some(s.id);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Combined lookup-or-insert: probes once, calling `make` only on a
    /// miss — it stores the new node in `keys` and returns its id — and
    /// placing the id at the first tombstone on the probe path (or the
    /// terminal empty slot). Equivalent to `get` followed by `insert`, but
    /// the key is hashed and the table probed a single time — the shape of
    /// `make_node`'s hot path.
    pub fn get_or_insert_with<K: TableKey, A: KeyStore<K> + ?Sized>(
        &mut self,
        key: K,
        keys: &mut A,
        make: impl FnOnce(&mut A) -> u32,
    ) -> u32 {
        // Growing up front keeps the terminal probe slot valid for the
        // insert; the wasted grow on a would-be hit is amortized away.
        self.maybe_grow();
        let h = self.hash_of(&key);
        let mut i = self.home(h);
        let mut probes = 1u64;
        let mut reuse: Option<usize> = None;
        loop {
            let s = self.slots[i];
            if s.hash == 0 {
                break;
            }
            if s.hash == h && keys.key_of(s.id) == key {
                self.count_lookup(probes);
                self.stats.hits += 1;
                return s.id;
            }
            if s.hash == TOMBSTONE && reuse.is_none() {
                reuse = Some(i);
            }
            i = (i + 1) & self.mask;
            probes += 1;
        }
        self.count_lookup(probes);
        let id = make(keys);
        let slot = reuse.unwrap_or(i);
        if self.slots[slot].hash == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.slots[slot] = Slot { hash: h, id };
        self.len += 1;
        self.maybe_adapt(keys);
        id
    }

    /// Insert stored id `id`, whose key `keys` must already hold. The
    /// caller must ensure the key is not already present (unique-table
    /// discipline: always `get` first).
    pub fn insert<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, id: u32, keys: &A) {
        self.maybe_grow();
        let h = self.hash_of(&keys.key_of(id));
        self.place(Slot { hash: h, id });
        self.len += 1;
        self.maybe_adapt(keys);
    }

    /// First-come-first-served placement of a pre-hashed slot (no growth,
    /// no counting): the first non-live slot on the probe path — a
    /// tombstone counts, which is what keeps remove+insert churn on a
    /// deferred-repair table from growing probe runs.
    #[inline]
    fn place(&mut self, s: Slot) {
        let mut i = self.home(s.hash);
        while live(self.slots[i].hash) {
            i = (i + 1) & self.mask;
        }
        if self.slots[i].hash == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.slots[i] = s;
    }

    /// Remove stored id `id` (its key is read from `keys`, which must
    /// still hold it). Returns whether it was present.
    ///
    /// Deletion strategy is adaptive (the per-swap GC fix): on a small
    /// (L1-resident) table the slot is tombstoned and hole repair is
    /// deferred to a batched sweep; on a large table the displaced run is
    /// backward-shifted immediately, leaving no tombstone behind.
    pub fn remove<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, id: u32, keys: &A) -> bool {
        let h = self.hash_of(&keys.key_of(id));
        let mut i = self.home(h);
        loop {
            let s = self.slots[i];
            if s.hash == 0 {
                return false;
            }
            if s.hash == h && s.id == id {
                break;
            }
            i = (i + 1) & self.mask;
        }
        self.len -= 1;
        if self.defer_repair() {
            self.slots[i].hash = TOMBSTONE;
            self.tombstones += 1;
            self.maybe_sweep_tombstones();
        } else {
            debug_assert_eq!(self.tombstones, 0, "large tables are tombstone-free");
            self.backward_shift(i);
        }
        true
    }

    /// Is the table in the deferred-repair (tombstoning) regime? Once any
    /// tombstone exists, stay in the regime until a rebuild clears it, so
    /// the eager paths never meet a tombstoned run.
    #[inline]
    fn defer_repair(&self) -> bool {
        self.slots.len() <= Self::DEFER_REPAIR_MAX_CAP || self.tombstones > 0
    }

    /// The batched sweep backing deferred deletion: once tombstones reach
    /// the [`Self::SWEEP_TOMBSTONE_DIV`] fraction of capacity, compact
    /// every live entry back to its FCFS position in one pass (cost
    /// amortized over the many deletions that paid nothing).
    fn maybe_sweep_tombstones(&mut self) {
        if self.tombstones * Self::SWEEP_TOMBSTONE_DIV >= self.slots.len() {
            self.sweep_tombstones_now();
        }
    }

    fn sweep_tombstones_now(&mut self) {
        // Anchor: a slot that is empty *before* the sweep. No entry's
        // probe run crosses a truly empty slot (runs contain only live and
        // tombstoned slots), so repairs in anchored cyclic order never
        // strand an already-repaired entry — the same argument as the
        // eager retain's pass 2. One exists because load is capped at 75%.
        let anchor = self.first_empty();
        // Turn every tombstone into a genuine hole (early-exit scan).
        let mut remaining = self.tombstones;
        for s in &mut self.slots {
            if s.hash == TOMBSTONE {
                *s = EMPTY;
                remaining -= 1;
                if remaining == 0 {
                    break;
                }
            }
        }
        self.tombstones = 0;
        self.repair_from(anchor, self.slots.len(), &[]);
        self.stats.batched_repairs += 1;
    }

    /// Index of a slot that is empty right now; one always exists because
    /// load is capped at 75%.
    fn first_empty(&self) -> usize {
        self.slots
            .iter()
            .position(|s| s.hash == 0)
            .expect("open table is never full")
    }

    /// In-place FCFS repair of the `span` slots after `anchor` (cyclic):
    /// slide every displaced survivor back to the first empty slot on its
    /// probe path. `anchor` must be empty and crossed by no probe path of
    /// the entries being repaired, so a slot a move vacates lies strictly
    /// after every already-repaired entry's path. The walk stops early at
    /// an empty slot that is not one of the (sorted) punched `holes` when
    /// `holes` is non-empty — the far boundary of a local cluster.
    fn repair_from(&mut self, anchor: usize, span: usize, holes: &[u32]) {
        for k in 1..=span {
            let i = (anchor + k) & self.mask;
            let s = self.slots[i];
            if s.hash == 0 {
                if !holes.is_empty() && holes.binary_search(&(i as u32)).is_err() {
                    break;
                }
                continue;
            }
            let mut j = self.home(s.hash);
            while j != i && self.slots[j].hash != 0 {
                j = (j + 1) & self.mask;
            }
            if j != i {
                self.slots[j] = s;
                self.slots[i] = EMPTY;
            }
        }
    }

    /// Growth gate for the insert paths: when tombstones are what pushes
    /// the load factor over the cap, compact them instead of doubling the
    /// capacity — a table bloated by deferred deletions would otherwise
    /// keep growing (and its sweeps keep lengthening) under remove/insert
    /// churn whose *live* population is stable.
    #[inline]
    fn maybe_grow(&mut self) {
        if (self.len + self.tombstones + 1) * Self::GROW_LOAD_DEN
            <= self.slots.len() * Self::GROW_LOAD_NUM
        {
            return;
        }
        if self.tombstones > 0 {
            self.sweep_tombstones_now();
        }
        if (self.len + 1) * Self::GROW_LOAD_DEN > self.slots.len() * Self::GROW_LOAD_NUM {
            self.rebuild(self.slots.len() * 2);
            self.stats.resizes += 1;
        }
    }

    /// Close the hole at `i` by relocating every later entry of the
    /// contiguous run whose probe path crosses the hole (Knuth's
    /// tombstone-free deletion for linear probing). The scan must continue
    /// past entries that sit at their home: an entry further down the run
    /// may still hash before the hole.
    fn backward_shift(&mut self, mut i: usize) {
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let s = self.slots[j];
            if s.hash == 0 {
                break;
            }
            // Move `j`'s entry into the hole iff its home is cyclically
            // outside (i, j] — i.e. its probe path reaches `j` only
            // through `i`.
            let hole_dist = j.wrapping_sub(i) & self.mask;
            let displacement = j.wrapping_sub(self.home(s.hash)) & self.mask;
            if displacement >= hole_dist {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = EMPTY;
    }

    /// Keep only the ids for which `keep(keys, id)` holds
    /// (garbage-collection sweep), in place and judging each entry exactly
    /// once: pass 1 punches holes, pass 2 restores probe-path reachability
    /// by sliding displaced survivors back toward their homes — no
    /// copying, no rehashing, and a sweep that removes nothing writes
    /// nothing. Shrinks the table into a smaller array when occupancy has
    /// dropped far below capacity. The open table needs no keys here;
    /// `keys` is only handed to `keep`.
    pub fn retain<K: TableKey, A: KeyStore<K> + ?Sized>(
        &mut self,
        keys: &mut A,
        mut keep: impl FnMut(&mut A, u32) -> bool,
    ) {
        // Per-swap GC sweeps visit every subtable; empty ones (common
        // while a variable sifts through foreign levels) must cost nothing
        // rather than a full slot-array scan.
        if self.len == 0 {
            return;
        }
        let deferred = self.defer_repair();
        // The anchor must be a slot that is empty *before* any hole is
        // punched, so that no entry's original probe path wraps across it.
        let anchor = if deferred { 0 } else { self.first_empty() };
        // Pass 1: judge every entry exactly once, stopping as soon as all
        // `len` live entries have been judged (the tail past the last
        // entry is never touched). A sweep that removes nothing (the
        // common case between adjacent sifting swaps) ends here, having
        // written nothing. The deferred-repair regime (small, L1-resident
        // tables) tombstones the dead and skips hole repair entirely — the
        // batched sweep pays it back later; the eager regime punches
        // holes, recording up to capacity/8 of them for the local repair.
        let mut holes = std::mem::take(&mut self.holes);
        holes.clear();
        let hole_cap = self.slots.len() / 8;
        let (mut judged, mut dead) = (0usize, 0usize);
        let live_before = self.len;
        for (i, s) in self.slots.iter_mut().enumerate() {
            if !live(s.hash) {
                continue;
            }
            if !keep(keys, s.id) {
                if deferred {
                    s.hash = TOMBSTONE;
                } else {
                    *s = EMPTY;
                    if holes.len() < hole_cap {
                        holes.push(i as u32);
                    }
                }
                dead += 1;
            }
            judged += 1;
            if judged == live_before {
                break;
            }
        }
        if dead == 0 {
            self.holes = holes;
            return;
        }
        self.len -= dead;
        if deferred {
            self.tombstones += dead;
        }
        let mut target = self.slots.len();
        while target > 16 && self.len * 8 < target {
            target /= 2;
        }
        if target < self.slots.len() {
            // Occupancy collapsed: shrink into a new array (entries are
            // already judged — this just compacts). The deferred regime's
            // wider hysteresis than a halve-at-25% rule keeps per-swap GC,
            // which moves whole levels back and forth, from thrashing
            // resize cycles against the 75% grow threshold (measured on
            // the misex1 sift: 3x the chained table's resize count). The
            // hole buffer, sized for the old capacity, is released too.
            drop(holes);
            self.rebuild(target);
            return;
        }
        if deferred {
            self.holes = holes;
            if self.tombstones * Self::SWEEP_TOMBSTONE_DIV >= self.slots.len() {
                // The GC is the batching point: one repair pass folds this
                // sweep's deaths together with every tombstone the
                // remove/insert churn deferred since the last sweep.
                self.sweep_tombstones_now();
            }
            return;
        }
        if dead * 8 < self.slots.len() {
            // Sparse deaths (the per-swap GC sweeps issued by sifting kill
            // a handful of nodes at a time): run the pass-2 FCFS repair
            // *locally*, only over the cluster containing each hole —
            // O(dead × cluster length) instead of the O(capacity)
            // whole-table sweep below. A cluster is bounded by slots that
            // were empty before this sweep; pre-punch probe paths never
            // cross such a slot, so it is a valid local anchor, and
            // entries beyond the cluster's far boundary need no repair.
            // (Two holes sharing a cluster repair it twice; the second
            // sweep moves nothing.) Pass 1 records holes in ascending slot
            // order, so membership checks are binary searches — the guard
            // admits up to capacity/8 deaths, where a linear `contains`
            // per probed slot would dominate.
            debug_assert_eq!(holes.len(), dead);
            debug_assert!(holes.windows(2).all(|w| w[0] < w[1]));
            for &h in &holes {
                // Local anchor: nearest slot before `h` that is empty and
                // is not itself a punched hole. One exists: load is capped
                // at 75%, so at least capacity/4 slots are empty while
                // fewer than capacity/8 are punched holes.
                let mut a = h as usize;
                loop {
                    a = a.wrapping_sub(1) & self.mask;
                    if self.slots[a].hash == 0 && holes.binary_search(&(a as u32)).is_err() {
                        break;
                    }
                }
                // FCFS repair from the anchor to the cluster's far
                // boundary (the first empty slot that is not a punched
                // hole). Moves only vacate slots behind the frontier.
                self.repair_from(a, self.slots.len(), &holes);
            }
            self.holes = holes;
            return;
        }
        self.holes = holes;
        // Pass 2: repair reachability in place over the whole table, in
        // anchored cyclic order.
        self.repair_from(anchor, self.slots.len(), &[]);
    }

    /// Visit every stored id (order unspecified).
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        let mut seen = 0usize;
        for s in &self.slots {
            if live(s.hash) {
                f(s.id);
                seen += 1;
                if seen == self.len {
                    break;
                }
            }
        }
    }

    /// Collect all stored ids.
    #[must_use]
    pub fn ids(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len);
        self.for_each(|id| out.push(id));
        out
    }

    /// Drop all entries, keeping allocation and hasher configuration.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
        self.len = 0;
        self.tombstones = 0;
    }

    /// The adaptive step shared with [`BucketTable`]: if the average probe
    /// length in the current window exceeds the threshold, rotate the hash
    /// arrangement / prime and rehash every stored id's key through `keys`
    /// into a new array of the same capacity (paper §IV-A3).
    fn maybe_adapt<K: TableKey, A: KeyStore<K> + ?Sized>(&mut self, keys: &A) {
        if self.lookups_since_adapt < Self::ADAPT_WINDOW {
            return;
        }
        let avg = self.probes_since_adapt as f64 / self.lookups_since_adapt as f64;
        self.probes_since_adapt = 0;
        self.lookups_since_adapt = 0;
        if avg > Self::ADAPT_PROBE_THRESHOLD {
            self.hasher.rearrange();
            let fresh = vec![EMPTY; self.slots.len()];
            let old = std::mem::replace(&mut self.slots, fresh);
            self.tombstones = 0;
            for s in old.into_iter().filter(|s| live(s.hash)) {
                let hash = self.hash_of(&keys.key_of(s.id));
                self.place(Slot { hash, id: s.id });
            }
            self.stats.rearrangements += 1;
        }
    }

    /// Copy every live slot, by cached hash and in slot order, into a new
    /// array of `capacity` slots. Tombstones do not survive a rebuild.
    fn rebuild(&mut self, capacity: usize) {
        let mut old = std::mem::replace(&mut self.slots, vec![EMPTY; capacity]);
        self.mask = capacity - 1;
        self.tombstones = 0;
        for &s in old.iter().filter(|s| live(s.hash)) {
            self.place(s);
        }
        if capacity < old.len() {
            // A shrink hands the large old array back by shrinking it
            // (a `realloc`) before dropping it, not by freeing it whole:
            // with glibc, freeing the large arrays whole after
            // collections made later, unrelated allocations pay for
            // multi-millisecond heap trims in most perfbench `cnf_count`
            // passes (`setup_s` 0.15 → 2 ms); shrinking first leaves
            // about one pass in ten.
            old.clear();
            old.shrink_to(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cantor::HashArrangement;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct K3(u32, u32, u32);
    impl TableKey for K3 {
        fn table_hash(&self, h: &CantorHasher) -> u64 {
            h.hash3(self.0 as u64, self.1 as u64, self.2 as u64)
        }
    }

    /// A key whose hash collapses to four values under the default
    /// nesting arrangement, so chains and probe runs grow long until the
    /// table rotates its hasher.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Clumped(u32, u32);
    impl TableKey for Clumped {
        fn table_hash(&self, h: &CantorHasher) -> u64 {
            if h.arrangement() == HashArrangement::LeftNested {
                u64::from((self.0 ^ self.1) % 4)
            } else {
                h.hash2(self.0 as u64, self.1 as u64)
            }
        }
    }

    /// A key arena of `n` keys, id `i` holding `key(i)`.
    fn arena(n: u32, key: impl Fn(u32) -> K3) -> Vec<K3> {
        (0..n).map(key).collect()
    }

    #[test]
    fn open_high_load_miss_windows_do_not_rearrange() {
        // Just under the 3/4 grow load a uniform hash costs
        // ½(1 + 1/(1 − α)²) ≈ 8 probes per miss. Windows of misses there
        // measure the load, not a clustered hash, and must not rotate the
        // hasher.
        let spread = |i: u32| K3(i, i.wrapping_mul(2_654_435_761), i ^ 0xABCD);
        let stored = 12_200u32;
        let keys = arena(stored + 3, spread);
        let mut t = OpenTable::new(stored as usize);
        for i in 0..stored {
            t.insert(i, &keys);
        }
        assert_eq!(t.slots.len(), 1 << 14);
        let before = *t.stats();
        for round in 0..3u32 {
            for j in 0..OpenTable::ADAPT_WINDOW as u32 {
                let missing = spread(1_000_000 + round * 10_000 + j);
                assert_eq!(t.get(&missing, &keys), None);
            }
            t.insert(stored + round, &keys);
        }
        assert_eq!(
            t.slots.len(),
            1 << 14,
            "the inserts stayed below the grow point"
        );
        let stats = t.stats();
        let avg = (stats.probes - before.probes) as f64 / (stats.lookups - before.lookups) as f64;
        assert!(avg > 6.0, "the windows are miss-heavy ({avg:.2} probes)");
        assert_eq!(stats.rearrangements, 0, "{avg:.2} probes per miss");
    }

    #[test]
    fn open_retain_sparse_deaths_keeps_survivors_reachable() {
        // Exercises retain's local-cluster repair path (dead ≪ capacity):
        // repeated sweeps each killing a small pseudo-random subset — the
        // per-swap GC shape — must leave every survivor reachable,
        // including entries whose probe runs contained several holes.
        let mut keys = arena(500, |i| K3(i, i.wrapping_mul(2654435761), i ^ 0xABCD));
        let mut t = OpenTable::new(256);
        let mut alive: std::collections::HashSet<u32> = (0..500u32).collect();
        for i in 0..500u32 {
            t.insert(i, &keys);
        }
        let mut state = 0x5EEDu64;
        for round in 0..200 {
            // Kill ~1% per sweep so dead*8 < capacity holds.
            let mut killed: Vec<u32> = Vec::new();
            t.retain(&mut keys, |_, v| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(round as u64);
                if state >> 57 == 0 && killed.len() < 8 {
                    killed.push(v);
                    false
                } else {
                    true
                }
            });
            for v in killed {
                alive.remove(&v);
            }
            assert_eq!(t.len(), alive.len(), "round {round}");
            for &i in &alive {
                assert_eq!(
                    t.get(&keys[i as usize], &keys),
                    Some(i),
                    "round {round}: survivor {i} lost"
                );
            }
        }
        assert!(
            !alive.is_empty(),
            "the sweeps must not have killed everything"
        );
        assert!(alive.len() < 500, "the sweeps must have killed something");
    }

    #[test]
    fn open_deferred_remove_tombstones_then_sweeps() {
        // A small (deferred-repair) table under remove/insert churn: every
        // removal must tombstone instead of repairing, contents must stay
        // exact, and sustained deletion pressure must trigger the batched
        // sweep.
        let keys = arena(200, |i| K3(i, i * 3, i ^ 1));
        let mut t = OpenTable::new(64);
        assert!(t.slots.len() <= OpenTable::DEFER_REPAIR_MAX_CAP);
        for i in 0..96u32 {
            t.insert(i, &keys);
        }
        let mut alive: std::collections::HashSet<u32> = (0..96u32).collect();
        let mut state = 0xC0FFEEu64;
        for round in 0..600u32 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let i = (state >> 33) as u32 % 200;
            if alive.remove(&i) {
                assert!(t.remove(i, &keys), "round {round}");
            } else {
                assert!(!t.remove(i, &keys), "round {round}");
                t.insert(i, &keys);
                alive.insert(i);
            }
            assert_eq!(t.len(), alive.len());
        }
        for &i in &alive {
            assert_eq!(t.get(&keys[i as usize], &keys), Some(i));
        }
        assert!(
            t.stats().batched_repairs > 0,
            "600 churn rounds must have triggered a batched sweep"
        );
    }

    #[test]
    fn open_deferred_retain_keeps_survivors_exact() {
        // The deferred-repair retain path (small table): repeated sweeps
        // punch tombstones without repair; every survivor stays reachable
        // and killed keys stay gone, across sweeps and re-inserts.
        let mut keys = arena(1100, |i| K3(i, 7, 9));
        let mut t = OpenTable::new(256);
        for i in 0..300u32 {
            t.insert(i, &keys);
        }
        t.retain(&mut keys, |_, v| v % 3 != 0);
        let expect: Vec<u32> = (0..300).filter(|v| v % 3 != 0).collect();
        assert_eq!(t.len(), expect.len());
        for i in 0..300u32 {
            let want = (i % 3 != 0).then_some(i);
            assert_eq!(t.get(&K3(i, 7, 9), &keys), want, "key {i}");
        }
        // Tombstoned slots must be reusable by both insert paths.
        for i in 1000..1100u32 {
            assert_eq!(t.get_or_insert_with(K3(i, 7, 9), &mut keys, |_| i), i);
        }
        t.retain(&mut keys, |_, v| v >= 1000);
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(&K3(1050, 7, 9), &keys), Some(1050));
        assert_eq!(t.get(&K3(100, 7, 9), &keys), None);
    }

    #[test]
    fn open_large_tables_stay_tombstone_free() {
        // Past the deferral cap, remove must backward-shift eagerly (the
        // eager regime's invariant is asserted in debug builds).
        let n = (OpenTable::DEFER_REPAIR_MAX_CAP * 2) as u32;
        let keys = arena(n, |i| K3(i, 1, 2));
        let mut t = OpenTable::new(n as usize);
        for i in 0..n {
            t.insert(i, &keys);
        }
        assert!(t.slots.len() > OpenTable::DEFER_REPAIR_MAX_CAP);
        for i in (0..n).step_by(3) {
            assert!(t.remove(i, &keys));
        }
        assert_eq!(t.tombstones, 0);
        for i in 0..n {
            let want = (i % 3 != 0).then_some(i);
            assert_eq!(t.get(&K3(i, 1, 2), &keys), want);
        }
    }

    #[test]
    fn open_shrink_returns_memory() {
        // A collapse in occupancy rebuilds into a smaller array: the
        // allocated bytes follow the live size down, not the peak.
        let n = 50_000u32;
        let mut keys = arena(n, |i| K3(i, 3, 4));
        let mut t = OpenTable::new(4);
        for i in 0..n {
            t.insert(i, &keys);
        }
        let peak = t.heap_bytes();
        assert!(peak >= n as usize * 8, "8-byte slots at <= 75% load");
        t.retain(&mut keys, |_, id| id < 100);
        assert_eq!(t.len(), 100);
        assert!(
            t.heap_bytes() * 64 < peak,
            "shrink kept {} of {peak} bytes",
            t.heap_bytes()
        );
        for i in 0..n {
            assert_eq!(t.get(&K3(i, 3, 4), &keys), (i < 100).then_some(i));
        }
    }

    #[test]
    fn peek_matches_get_on_both_tables() {
        let keys = arena(210, |i| K3(i, 5, i));
        let mut open = OpenTable::new(32);
        let mut chained = BucketTable::new(32);
        for i in 0..200u32 {
            open.insert(i, &keys);
            chained.insert(i, &keys);
        }
        open.remove(3, &keys);
        chained.remove(3, &keys);
        for i in 0..210u32 {
            let want = (i < 200 && i != 3).then_some(i);
            assert_eq!(open.peek(&K3(i, 5, i), &keys), want, "open {i}");
            assert_eq!(chained.peek(&K3(i, 5, i), &keys), want, "chained {i}");
        }
        let lookups_before = open.stats().lookups;
        let _ = open.peek(&K3(0, 5, 0), &keys);
        assert_eq!(open.stats().lookups, lookups_before, "peek counts nothing");
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let keys = arena(1000, |i| K3(i, i * 7, i ^ 3));
        let mut t = BucketTable::new(4);
        for i in 0..1000u32 {
            t.insert(i, &keys);
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(t.get(&K3(i, i * 7, i ^ 3), &keys), Some(i));
        }
        assert_eq!(t.get(&K3(5, 5, 5), &keys), None);
        for i in (0..1000u32).step_by(2) {
            assert!(t.remove(i, &keys));
        }
        assert_eq!(t.len(), 500);
        for i in 0..1000u32 {
            let expect = if i % 2 == 0 { None } else { Some(i) };
            assert_eq!(t.get(&K3(i, i * 7, i ^ 3), &keys), expect);
        }
    }

    #[test]
    fn retain_sweeps_like_gc() {
        let mut keys = arena(1100, |i| if i < 1000 { K3(i, 0, 0) } else { K3(i, 1, 1) });
        let mut t = BucketTable::new(4);
        for i in 0..256u32 {
            t.insert(i, &keys);
        }
        t.retain(&mut keys, |_, v| v % 3 == 0);
        assert_eq!(t.len(), (0..256).filter(|v| v % 3 == 0).count());
        assert_eq!(t.get(&K3(3, 0, 0), &keys), Some(3));
        assert_eq!(t.get(&K3(4, 0, 0), &keys), None);
        // freed slots must be reusable
        for i in 1000..1100u32 {
            t.insert(i, &keys);
        }
        assert_eq!(t.get(&K3(1050, 1, 1), &keys), Some(1050));
    }

    #[test]
    fn grows_under_load() {
        let keys = arena(10_000, |i| K3(i, i, i));
        let mut t = BucketTable::new(4);
        for i in 0..10_000u32 {
            t.insert(i, &keys);
        }
        assert!(t.stats().resizes > 5);
        for i in 0..10_000u32 {
            assert_eq!(t.get(&K3(i, i, i), &keys), Some(i));
        }
    }

    #[test]
    fn rearrangement_preserves_contents() {
        // A clustering hash forces the rotation through the public path:
        // a window of missing-key lookups walks chains of ~128 entries,
        // and the next insert rotates the hasher.
        let keys: Vec<Clumped> = (0..513u32).map(|i| Clumped(i, 1)).collect();
        let mut t = BucketTable::new(4);
        for i in 0..512u32 {
            t.insert(i, &keys);
        }
        let before = t.hasher().arrangement();
        for i in 0..5000u32 {
            assert_eq!(t.get(&Clumped(i + 100_000, 9), &keys), None);
        }
        t.insert(512, &keys);
        assert!(t.stats().rearrangements > 0, "clustered chains must rotate");
        assert_ne!(t.hasher().arrangement(), before, "the arrangement rotated");
        for (i, k) in (0u32..).zip(&keys) {
            assert_eq!(t.get(k, &keys), Some(i), "key {i} lost");
        }
    }

    #[test]
    fn clear_empties_table() {
        let keys = arena(100, |i| K3(i, 2, 3));
        let mut t = BucketTable::new(4);
        for i in 0..100u32 {
            t.insert(i, &keys);
        }
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get(&K3(1, 2, 3), &keys), None);
        t.insert(1, &keys);
        assert_eq!(t.get(&K3(1, 2, 3), &keys), Some(1));
    }

    #[test]
    fn ids_and_for_each_enumerate_all() {
        let keys = arena(150, |i| K3(i, 0, 1));
        let mut t = BucketTable::new(4);
        for i in 100..150u32 {
            t.insert(i, &keys);
        }
        let mut ids = t.ids();
        ids.sort_unstable();
        assert_eq!(ids, (100..150).collect::<Vec<_>>());
    }
}
