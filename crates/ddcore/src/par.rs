//! Multi-core execution: the generic parallel pipeline [`Par`] and its
//! building blocks — the sharded concurrent unique table, the lossy
//! lock-free computed cache, the append-only overlay arena and a std-only
//! fork-join helper.
//!
//! [`Par`] (module [`pipeline`]) is the one split → frozen-base parallel
//! phase → deterministic commit pipeline; [`crate::bbdd::ParBbdd`] and
//! [`crate::robdd::ParRobdd`] are its instances over the two sequential
//! managers, kernel [`Manager`](crate::Manager)s whose crate-private node
//! shapes supply the node rules. The design
//! follows HermesBDD's recipe — recursive `apply` parallelizes naturally
//! once node *uniqueness* is protected by a concurrent table and the
//! computed table is allowed to be *lossy* — with one twist that keeps
//! results bit-identical regardless of thread count: the parallel phase
//! works in a frozen-base + overlay space, and the final diagram is
//! committed to the owning sequential manager in a deterministic order
//! (see [`pipeline`] for the commit protocol).
//!
//! Everything here is safe Rust on `std` only (`Mutex`, `OnceLock` and
//! atomics); the crate-level `#![forbid(unsafe_code)]` applies.
//!
//! ## Memory-ordering argument (lossy cache + overlay arena)
//!
//! Overlay node words are plain atomic stores with `Relaxed` ordering. A
//! thread can only learn an overlay node id through one of two channels,
//! both of which establish a happens-before edge covering the node's words:
//!
//! 1. the **sharded table** — the id is published by `get_or_insert_with`
//!    under a shard `Mutex`, and every reader obtains it under the same
//!    lock (lock release/acquire orders the preceding word writes). The
//!    table is key-less, so its probes read the words of the ids stored
//!    in the shard — under that same lock, after the writes it orders;
//! 2. the **computed cache** — an entry's value is stored before its tag
//!    (`Release`), and a reader checks the tag first (`Acquire`).
//!
//! The cache itself is *lossy*: a reader that observes a torn tag/value
//! pair (two writers racing on one way) fails the tag verification and
//! treats the entry as a miss. Torn pairs are detectable because the value
//! word carries a 32-bit check derived from a second, independent
//! fingerprint of the key; the counters report them as `tear_misses`.

use crate::cantor::CantorHasher;
use crate::table::{KeyStore, OpenTable, TableKey};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

pub mod pipeline;

pub use pipeline::{NodeShape, Par};

// ─────────────────────── shared manager-facing types ─────────────────────

/// Tuning knobs of a parallel manager ([`Par`]; [`crate::bbdd`] and
/// [`crate::robdd`] re-export this; the defaults are sound for every workload, only
/// `threads` usually needs setting).
#[derive(Debug, Clone, Copy)]
pub struct ParConfig {
    /// Worker threads the fork-join phases may use (1 = run the same
    /// pipeline inline). Results never depend on this value.
    pub threads: usize,
    /// Combined operand node count below which an operation runs on the
    /// sequential manager directly. `0` forces the parallel pipeline even
    /// for trivial operands (useful for tests).
    pub cutoff: usize,
    /// Recursion levels to split before going parallel; `None` derives
    /// `log2(threads) + 3` (about 8 tasks per worker).
    pub split_depth: Option<u16>,
    /// Capacity (ways) of the lossy concurrent computed cache. Fixed for
    /// the manager's lifetime — atomic caches cannot grow in place.
    pub cache_ways: usize,
    /// Shard count of the concurrent unique table (rounded to a power of
    /// two).
    pub shards: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: 1,
            cutoff: 2048,
            split_depth: None,
            cache_ways: 1 << 20,
            shards: 64,
        }
    }
}

/// Execution counters of a parallel manager, surfaced next to the
/// sequential `BbddStats`/`RobddStats`.
#[derive(Debug, Clone, Default)]
pub struct ParStats {
    /// Operations that ran the parallel pipeline.
    pub ops_parallel: u64,
    /// Operations that fell back to the sequential manager (below the
    /// cutoff).
    pub ops_sequential: u64,
    /// Leaf subproblems executed across all parallel phases.
    pub tasks_executed: u64,
    /// Leaf subproblems executed by helper threads (work the submitting
    /// thread did not run itself).
    pub tasks_stolen: u64,
    /// Tasks executed per worker slot (index 0 = the submitting thread),
    /// accumulated across operations.
    pub tasks_by_worker: Vec<u64>,
    /// Recursive engine calls inside the parallel phases.
    pub par_recursions: u64,
    /// Overlay nodes committed into the base manager.
    pub nodes_imported: u64,
    /// Overlay nodes materialized (committed or scratch).
    pub overlay_nodes: u64,
    /// Sharded-table lock acquisitions that found the lock held
    /// (cumulative across all operations).
    pub shard_contention: u64,
    /// Per-shard occupancy at the end of the most recent parallel phase.
    pub last_shard_occupancy: Vec<usize>,
    /// Lossy concurrent cache counters (cumulative), including the
    /// tag-tear misses unique to the lock-free design.
    pub cache: AtomicCacheStats,
}

// ───────────────────────── sharded unique table ─────────────────────────

/// Occupancy / contention snapshot of one shard (see
/// [`ShardedTable::shard_stats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardStats {
    /// Entries currently stored in the shard.
    pub len: usize,
    /// Lock acquisitions that found the shard lock already held.
    pub contended: u64,
}

/// Pad each shard to its own cache line so neighbouring shard locks do not
/// false-share.
#[repr(align(64))]
#[derive(Debug)]
struct Shard {
    table: Mutex<OpenTable>,
    /// `try_lock` failures (a direct proxy for lock contention).
    contended: AtomicU64,
}

/// A concurrent, key-less unique table of node ids built from N
/// power-of-two shards of the sequential [`OpenTable`], each behind its
/// own lock. Keys live in the caller's node store ([`KeyStore`]), as for
/// the sequential table.
///
/// A key is routed to a shard by the top bits of its (Fibonacci-spread)
/// Cantor hash, so the per-shard tables see the same key distribution as
/// one big table would. `get_or_insert_with` holds exactly **one** shard
/// lock for the duration of the lookup (and of `make` on a miss), which is
/// the whole synchronization story: disjoint shards never contend.
///
/// The router hashes with a fixed [`CantorHasher`]; the shard-internal
/// tables keep their own adaptive hashers (a shard rearranging itself does
/// not move keys across shards).
///
/// ```
/// use ddcore::par::ShardedTable;
/// use ddcore::table::TableKey;
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
/// let keys = vec![Pair(1, 2), Pair(1, 2)]; // the node store: id = index
/// let t = ShardedTable::new(8, 64);
/// assert_eq!(t.get_or_insert_with(Pair(1, 2), &keys, || 0), 0);
/// assert_eq!(t.get_or_insert_with(Pair(1, 2), &keys, || 1), 0); // first wins
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedTable {
    shards: Box<[Shard]>,
    /// `64 - log2(shard count)`; routing takes the top hash bits.
    shift: u32,
    router: CantorHasher,
}

impl ShardedTable {
    /// Create a table with `shards` shards (rounded up to a power of two)
    /// of `per_shard_capacity` initial entries each.
    #[must_use]
    pub fn new(shards: usize, per_shard_capacity: usize) -> Self {
        let n = shards.next_power_of_two().max(1);
        ShardedTable {
            shards: (0..n)
                .map(|_| Shard {
                    table: Mutex::new(OpenTable::new(per_shard_capacity)),
                    contended: AtomicU64::new(0),
                })
                .collect(),
            shift: 64 - n.trailing_zeros(),
            router: CantorHasher::new(),
        }
    }

    /// Number of shards (always a power of two).
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Route a raw Cantor hash to its shard: Fibonacci-spread the
    /// prime-bounded hash over the full 64-bit range, then keep the top
    /// `log2(shards)` bits.
    #[inline]
    fn shard_of(&self, h: u64) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
        }
    }

    /// Combined lookup-or-insert under exactly one shard lock. `make` runs
    /// inside the critical section on a miss (the unique-table discipline:
    /// at most one thread materializes a given key); it stores the new
    /// node where `keys` can read it and returns its id.
    ///
    /// # Panics
    /// Panics if the shard lock is poisoned — a *previous* worker panicked
    /// mid-insert and the shard may hold a half-finished entry, so lookups
    /// through it are no longer trustworthy. When the call runs inside
    /// [`fork_join`]/[`try_fork_join`], this panic is caught and surfaced
    /// as one clean [`TaskPanic`] at join time (not an opaque cross-thread
    /// abort); [`ShardedTable::clear`] afterwards heals the shard.
    pub fn get_or_insert_with<K: TableKey, A: KeyStore<K> + ?Sized>(
        &self,
        key: K,
        keys: &A,
        make: impl FnOnce() -> u32,
    ) -> u32 {
        let shard = &self.shards[self.shard_of(key.table_hash(&self.router))];
        let mut guard = match shard.table.try_lock() {
            Ok(g) => g,
            Err(std::sync::TryLockError::WouldBlock) => {
                shard.contended.fetch_add(1, Ordering::Relaxed);
                match shard.table.lock() {
                    Ok(g) => g,
                    Err(_) => {
                        panic!("sharded unique table: shard poisoned by an earlier worker panic")
                    }
                }
            }
            Err(std::sync::TryLockError::Poisoned(_)) => {
                panic!("sharded unique table: shard poisoned by an earlier worker panic")
            }
        };
        guard.get_or_insert_with(key, &mut &*keys, |_| make())
    }

    /// Total entries across all shards (locks each shard briefly).
    /// Poison-tolerant: a poisoned shard is still counted (its length field
    /// is valid even if a racing insert died half-way).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.table.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// `true` when no shard holds an entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all entries, keeping shard allocations and contention counters.
    ///
    /// This is also the recovery path after a worker panic: clearing resets
    /// each shard wholesale (any half-finished insert is discarded) and
    /// un-poisons its lock, so the table is usable again.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            s.table
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
            s.table.clear_poison();
        }
    }

    /// Per-shard occupancy and contention counters (poison-tolerant, like
    /// [`ShardedTable::len`]).
    #[must_use]
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                len: s.table.lock().unwrap_or_else(PoisonError::into_inner).len(),
                contended: s.contended.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Heap bytes of the shards' slot arrays (poison-tolerant, like
    /// [`ShardedTable::len`]).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.table
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .heap_bytes()
            })
            .sum()
    }

    /// Visit every stored id, shard by shard (order unspecified; each
    /// shard is locked for its portion of the walk).
    ///
    /// # Panics
    /// Panics if a shard lock is poisoned: a half-finished insert may be
    /// present, so enumerating its entries could yield a torn entry.
    pub fn for_each(&self, mut f: impl FnMut(u32)) {
        for s in self.shards.iter() {
            s.table
                .lock()
                .expect("sharded unique table: shard poisoned by an earlier worker panic")
                .for_each(&mut f);
        }
    }
}

// ─────────────────────── lossy lock-free computed cache ──────────────────

/// Cumulative counters of an [`AtomicCache`] (all updated with relaxed
/// atomics; exact under a single thread, a faithful tally under many).
#[derive(Debug, Clone, Copy, Default)]
pub struct AtomicCacheStats {
    /// Lookup operations performed.
    pub lookups: u64,
    /// Lookups that found a live, tag-verified entry.
    pub hits: u64,
    /// Results recorded.
    pub inserts: u64,
    /// Lookups whose tag matched but whose value word failed the torn-write
    /// check (two writers raced on the way) — counted as misses.
    pub tear_misses: u64,
    /// Epoch bumps (whole-cache invalidations).
    pub invalidations: u64,
}

impl AtomicCacheStats {
    /// Lookups that missed (tear misses included — a torn read is a miss).
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

/// One cache way: a tag word and a value word, written value-first
/// (`Release` on the tag) and read tag-first (`Acquire`).
#[derive(Debug)]
struct Way {
    tag: AtomicU64,
    val: AtomicU64,
}

/// The lossy lock-free computed cache: 2-way set-associative over
/// tag/value [`AtomicU64`] pairs with tag-verified reads.
///
/// Keys are the same `(k1, k2, op-tag)` triples the sequential
/// [`ComputedCache`](crate::ComputedCache) uses (the op-tag registry of
/// [`crate::optag`] is shared), compressed into two independent 64-bit
/// fingerprints: one is the stored tag (bit 0 forced set, so `0` can mean
/// "empty"), the other contributes a 32-bit check folded into the value
/// word next to the 32-bit result. A reader accepts an entry only when the
/// tag matches *and* the value's check half matches — a torn tag/value
/// pair (two racing writers) fails verification and is simply a miss.
///
/// Invalidation is O(1): an epoch counter participates in both
/// fingerprints, so bumping it orphans every existing entry.
///
/// ```
/// use ddcore::par::AtomicCache;
/// let c = AtomicCache::new(1 << 10);
/// c.insert(1, 2, 3, 99);
/// assert_eq!(c.get(1, 2, 3), Some(99));
/// c.bump_epoch();
/// assert_eq!(c.get(1, 2, 3), None);
/// ```
#[derive(Debug)]
pub struct AtomicCache {
    /// `2 * sets` ways; set `s` owns ways `2s` and `2s + 1`.
    ways: Box<[Way]>,
    /// `sets - 1` (sets are a power of two).
    mask: u64,
    epoch: AtomicU64,
    lookups: AtomicU64,
    hits: AtomicU64,
    inserts: AtomicU64,
    tear_misses: AtomicU64,
    invalidations: AtomicU64,
}

/// SplitMix64-style finalizer: the standard full-avalanche 64-bit mix.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl AtomicCache {
    /// Create a cache with `slots` ways (rounded up to a power of two,
    /// minimum 32). The cache never grows: atomic caches cannot be resized
    /// without a global barrier, so size it for the workload up front.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        let n = slots.next_power_of_two().max(32);
        AtomicCache {
            ways: (0..n)
                .map(|_| Way {
                    tag: AtomicU64::new(0),
                    val: AtomicU64::new(0),
                })
                .collect(),
            mask: (n as u64 / 2) - 1,
            epoch: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
            tear_misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Number of ways allocated.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.ways.len()
    }

    /// Heap bytes the cache holds.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.ways.len() * std::mem::size_of::<Way>()
    }

    /// The two independent fingerprints of a key under the current epoch.
    /// `fp1` (the stored tag) has bit 0 forced set so it is never 0.
    ///
    /// The op tag and the epoch are avalanched *separately* before being
    /// combined: both are small integers, and a raw `tag ^ epoch` would
    /// alias `(tag, epoch)` pairs across invalidations (e.g. tag 4 at
    /// epoch 8 against tag 12 at epoch 0), resurrecting stale entries.
    #[inline]
    fn fingerprints(&self, k1: u64, k2: u64, tag: u32) -> (u64, u64) {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let salt =
            mix64(u64::from(tag) ^ 0xA076_1D64_78BD_642F) ^ mix64(epoch ^ 0xE703_7ED1_A0B4_28DB);
        let a = mix64(k1 ^ mix64(k2 ^ salt));
        let b = mix64(a ^ 0x9E37_79B9_7F4A_7C15);
        (a | 1, b)
    }

    /// Look up a previously computed 32-bit result.
    #[inline]
    pub fn get(&self, k1: u64, k2: u64, tag: u32) -> Option<u32> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let (fp1, fp2) = self.fingerprints(k1, k2, tag);
        let base = ((fp1 >> 1) & self.mask) as usize * 2;
        for way in &self.ways[base..base + 2] {
            if way.tag.load(Ordering::Acquire) == fp1 {
                let v = way.val.load(Ordering::Relaxed);
                if (v >> 32) as u32 == (fp2 >> 32) as u32 {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    crate::obs::cache_access(tag, true);
                    return Some(v as u32);
                }
                // Tag matched but the value belongs to another write: a
                // torn entry — by design, just a miss.
                self.tear_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        crate::obs::cache_access(tag, false);
        None
    }

    /// Record a computed 32-bit result. Prefers an empty way; otherwise
    /// overwrites the way picked by a fingerprint bit (lossy by contract —
    /// racing writers may tear an entry, which readers detect).
    #[inline]
    pub fn insert(&self, k1: u64, k2: u64, tag: u32, result: u32) {
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let (fp1, fp2) = self.fingerprints(k1, k2, tag);
        let base = ((fp1 >> 1) & self.mask) as usize * 2;
        let t0 = self.ways[base].tag.load(Ordering::Relaxed);
        let way = if t0 == fp1 || t0 == 0 {
            &self.ways[base]
        } else {
            let t1 = self.ways[base + 1].tag.load(Ordering::Relaxed);
            if t1 == fp1 || t1 == 0 {
                &self.ways[base + 1]
            } else {
                &self.ways[base + usize::from(fp1 & 2 != 0)]
            }
        };
        let v = (u64::from((fp2 >> 32) as u32) << 32) | u64::from(result);
        way.val.store(v, Ordering::Relaxed);
        way.tag.store(fp1, Ordering::Release);
    }

    /// Invalidate every entry in O(1) by bumping the epoch that both
    /// fingerprints incorporate.
    pub fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Ordering::Relaxed);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative counters since creation.
    #[must_use]
    pub fn stats(&self) -> AtomicCacheStats {
        AtomicCacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            tear_misses: self.tear_misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
        }
    }
}

// ───────────────────────── overlay node arena ────────────────────────────

/// Nodes per segment (`2^16`): big enough to amortize segment faults, small
/// enough that a mostly-idle arena wastes little.
const SEG_BITS: u32 = 16;
const SEG_LEN: usize = 1 << SEG_BITS;
/// Segment-directory size: `2^14` segments × `2^16` nodes = 2^30 node ids,
/// the full id space packed edges can address.
const MAX_SEGS: usize = 1 << 14;

/// One overlay slot: three packed `u32` words, matching the managers' node
/// layout (two child-edge words plus a meta word).
#[derive(Debug, Default)]
struct OverlaySlot {
    a: AtomicU32,
    b: AtomicU32,
    c: AtomicU32,
}

/// An append-only concurrent arena of `(u32, u32, u32)` node records — the
/// scratch space the parallel phase materializes result nodes into before
/// the deterministic commit imports them into the owning manager.
///
/// Storage is a directory of lazily-allocated fixed-size segments
/// ([`OnceLock`]-initialized), so `get` never observes a reallocation and
/// `reset` can recycle every segment without freeing. Slot words are
/// relaxed atomics; publication ordering is provided by the channel that
/// transports the slot *index* (see the module docs).
#[derive(Debug)]
pub struct OverlayArena {
    segs: Vec<OnceLock<Box<[OverlaySlot]>>>,
    next: AtomicU32,
}

impl Default for OverlayArena {
    fn default() -> Self {
        Self::new()
    }
}

impl OverlayArena {
    /// An empty arena (no segments allocated yet).
    #[must_use]
    pub fn new() -> Self {
        OverlayArena {
            segs: (0..MAX_SEGS).map(|_| OnceLock::new()).collect(),
            next: AtomicU32::new(0),
        }
    }

    #[inline]
    fn seg(&self, s: usize) -> &[OverlaySlot] {
        self.segs[s].get_or_init(|| {
            (0..SEG_LEN)
                .map(|_| OverlaySlot::default())
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
    }

    /// Append a record, returning its index.
    ///
    /// # Panics
    /// Panics if the arena is full (2^30 records).
    pub fn alloc(&self, a: u32, b: u32, c: u32) -> u32 {
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            (i as usize) < MAX_SEGS * SEG_LEN,
            "overlay arena exhausted (2^30 nodes)"
        );
        let slot = &self.seg(i as usize >> SEG_BITS)[i as usize & (SEG_LEN - 1)];
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.c.store(c, Ordering::Relaxed);
        i
    }

    /// Read record `i` (must have been obtained from [`OverlayArena::alloc`]
    /// through a synchronizing channel — the sharded table or the cache).
    #[inline]
    #[must_use]
    pub fn get(&self, i: u32) -> (u32, u32, u32) {
        let slot = &self.seg(i as usize >> SEG_BITS)[i as usize & (SEG_LEN - 1)];
        (
            slot.a.load(Ordering::Relaxed),
            slot.b.load(Ordering::Relaxed),
            slot.c.load(Ordering::Relaxed),
        )
    }

    /// Records currently allocated.
    #[must_use]
    pub fn len(&self) -> u32 {
        self.next.load(Ordering::Relaxed)
    }

    /// `true` when nothing is allocated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Segments with backing storage allocated — the arena's resident
    /// footprint survives [`OverlayArena::reset`], so this is the
    /// high-water mark the `session.*` metrics report.
    #[must_use]
    pub fn segments_allocated(&self) -> usize {
        self.segs.iter().filter(|s| s.get().is_some()).count()
    }

    /// Heap bytes of the arena: the segment directory plus every
    /// allocated segment.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.segs.capacity() * std::mem::size_of::<OnceLock<Box<[OverlaySlot]>>>()
            + self.segments_allocated() * SEG_LEN * std::mem::size_of::<OverlaySlot>()
    }

    /// Recycle the arena: existing segments stay allocated, indices restart
    /// at 0. Callers must ensure no stale index is dereferenced afterwards
    /// (the managers clear the sharded table and bump the cache epoch in
    /// the same breath).
    pub fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }
}

// ───────────────────────── fork-join execution ───────────────────────────

/// Per-invocation execution statistics of [`fork_join`].
#[derive(Debug, Clone, Default)]
pub struct FjStats {
    /// Workers that participated (including the submitting thread).
    pub workers: usize,
    /// Tasks executed by each worker; index 0 is the submitting thread.
    pub executed: Vec<u64>,
    /// Tasks executed by helper threads — work the submitting thread did
    /// not have to do itself ("stolen" from the shared queue).
    pub stolen: u64,
}

/// A worker task's panic, captured and surfaced at join time by
/// [`try_fork_join`] instead of cascading through the pool as an opaque
/// cross-thread abort (the classic symptom: one worker dies mid-insert,
/// every other worker then panics "lock poisoned", and the caller sees
/// whichever secondary panic won the race).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the first task body observed panicking.
    pub task: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fork-join task {} panicked: {}", self.task, self.message)
    }
}

impl std::error::Error for TaskPanic {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `tasks` task bodies across up to `threads` workers (the calling
/// thread plus `threads - 1` scoped helpers) and block until all complete.
///
/// Tasks are claimed from a shared atomic cursor — the flat fork-join shape
/// that fits recursion split at the top k levels, where the caller already
/// enumerated the subproblems. With `threads <= 1` (or a single task)
/// everything runs inline on the calling thread, spawning nothing.
///
/// The body receives the task index. A panic in any task body is caught
/// in the worker; the remaining workers stop claiming new tasks, the pool
/// drains, and the **first** captured panic is returned as
/// [`Err(TaskPanic)`](TaskPanic) when the scope joins — one clean error on
/// the calling thread instead of a cross-thread panic cascade.
///
/// # Errors
/// Returns the first captured [`TaskPanic`] when any task body panicked.
pub fn try_fork_join<F: Fn(usize) + Sync>(
    threads: usize,
    tasks: usize,
    body: F,
) -> Result<FjStats, TaskPanic> {
    let (stats, stopped) = try_fork_join_governed(threads, tasks, || false, body)?;
    debug_assert!(!stopped, "a constant-false stop predicate never stops");
    Ok(stats)
}

/// [`try_fork_join`] with a cooperative stop predicate, checked by every
/// worker **between tasks** (the same boundary the panic flag uses): once
/// `should_stop` returns `true`, no further tasks are claimed, the pool
/// drains the in-flight ones and `stopped = true` comes back with the
/// stats. This is how cancellation, deadlines and node budgets propagate
/// through the parallel managers — see [`crate::govern::StopView`], whose
/// `should_stop` the managers adapt into this predicate.
///
/// Tasks already running when the predicate first turns true complete
/// normally; the stop latency is therefore one task body, which is why the
/// managers keep split granularity fine (many small tasks) rather than
/// spawning few large ones.
///
/// # Errors
/// Returns the first captured [`TaskPanic`] when any task body panicked
/// (a panic takes precedence over a cooperative stop).
pub fn try_fork_join_governed<F: Fn(usize) + Sync, S: Fn() -> bool + Sync>(
    threads: usize,
    tasks: usize,
    should_stop: S,
    body: F,
) -> Result<(FjStats, bool), TaskPanic> {
    let failed = AtomicBool::new(false);
    let stopped = AtomicBool::new(false);
    let first_panic: Mutex<Option<TaskPanic>> = Mutex::new(None);
    let guarded = |i: usize| {
        // Per-worker task span: each pool thread carries its own trace
        // tid, so Perfetto shows one track per worker. Free when tracing
        // and profiling are off.
        let _task = crate::obs::span(crate::obs::Op::ParTask);
        // `body` only captures Sync state; a panic inside it cannot leave
        // our bookkeeping inconsistent, and any caller-side lock it held is
        // poisoned by the unwind exactly as without the catch.
        if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(i))) {
            let mut slot = first_panic.lock().unwrap_or_else(PoisonError::into_inner);
            if slot.is_none() {
                *slot = Some(TaskPanic {
                    task: i,
                    message: panic_message(payload.as_ref()),
                });
            }
            failed.store(true, Ordering::Release);
        }
    };
    // One predicate evaluation per between-task boundary; a true result is
    // latched so every other worker sees it as one cheap flag load.
    let stop_here = || {
        if stopped.load(Ordering::Acquire) {
            return true;
        }
        if should_stop() {
            stopped.store(true, Ordering::Release);
            return true;
        }
        false
    };
    let workers = threads.max(1).min(tasks.max(1));
    let stats = if workers <= 1 {
        let mut done = 0u64;
        for i in 0..tasks {
            if failed.load(Ordering::Acquire) || stop_here() {
                break;
            }
            guarded(i);
            done += 1;
        }
        FjStats {
            workers: 1,
            executed: vec![done],
            stolen: 0,
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let executed: Vec<AtomicU64> = (0..workers).map(|_| AtomicU64::new(0)).collect();
        let run = |w: usize| {
            let mut mine = 0u64;
            loop {
                if failed.load(Ordering::Acquire) || stop_here() {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= tasks {
                    break;
                }
                guarded(i);
                mine += 1;
            }
            executed[w].store(mine, Ordering::Relaxed);
        };
        std::thread::scope(|s| {
            for w in 1..workers {
                let run = &run;
                s.spawn(move || run(w));
            }
            run(0);
        });
        let executed: Vec<u64> = executed.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        let stolen = executed[1..].iter().sum();
        FjStats {
            workers,
            executed,
            stolen,
        }
    };
    let outcome = first_panic
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take();
    match outcome {
        Some(p) => Err(p),
        None => Ok((stats, stopped.load(Ordering::Acquire))),
    }
}

/// [`try_fork_join`], re-raising a captured worker panic as one clean
/// panic on the calling thread at join time.
///
/// # Panics
/// Panics with the first worker task's panic message when any task body
/// panicked.
pub fn fork_join<F: Fn(usize) + Sync>(threads: usize, tasks: usize, body: F) -> FjStats {
    match try_fork_join(threads, tasks, body) {
        Ok(stats) => stats,
        Err(p) => panic!("{p}"),
    }
}

/// Worker-count knob shared by the examples and benches: the `BBDD_THREADS`
/// environment variable, falling back to `default` when unset or invalid.
#[must_use]
pub fn threads_from_env(default: usize) -> usize {
    std::env::var("BBDD_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&t| t >= 1)
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct K2(u32, u32);
    impl TableKey for K2 {
        fn table_hash(&self, h: &CantorHasher) -> u64 {
            h.hash2(u64::from(self.0), u64::from(self.1))
        }
    }

    #[test]
    fn sharded_first_insert_wins() {
        let keys = vec![K2(7, 9); 4]; // ids 1..=3 all hold the key
        let t = ShardedTable::new(4, 16);
        assert_eq!(t.get_or_insert_with(K2(7, 9), &keys, || 1), 1);
        assert_eq!(t.get_or_insert_with(K2(7, 9), &keys, || 2), 1);
        assert_eq!(t.len(), 1);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get_or_insert_with(K2(7, 9), &keys, || 3), 3);
    }

    #[test]
    fn sharded_spreads_and_enumerates() {
        let keys: Vec<K2> = (0..2000u32).map(|i| K2(i, i ^ 0xABCD)).collect();
        let t = ShardedTable::new(8, 16);
        for i in 0..2000u32 {
            assert_eq!(t.get_or_insert_with(keys[i as usize], &keys, || i), i);
        }
        assert_eq!(t.len(), 2000);
        let stats = t.shard_stats();
        assert_eq!(stats.len(), 8);
        assert_eq!(stats.iter().map(|s| s.len).sum::<usize>(), 2000);
        // The Fibonacci route must not park everything in one shard.
        let populated = stats.iter().filter(|s| s.len > 0).count();
        assert!(populated >= 4, "only {populated} of 8 shards populated");
        let mut seen = 0usize;
        t.for_each(|id| {
            assert_eq!(keys[id as usize].0, id);
            seen += 1;
        });
        assert_eq!(seen, 2000);
    }

    #[test]
    fn sharded_concurrent_inserts_agree() {
        // Id `3i` holds key `(i, 1)`.
        let mut keys = vec![K2(u32::MAX, 0); 4500];
        for i in 0..1500u32 {
            keys[3 * i as usize] = K2(i, 1);
        }
        let t = ShardedTable::new(8, 16);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1500u32 {
                        let v = t.get_or_insert_with(K2(i, 1), &keys, || i * 3);
                        assert_eq!(v, i * 3, "the id is a function of the key");
                    }
                });
            }
        });
        assert_eq!(t.len(), 1500);
    }

    #[test]
    fn atomic_cache_roundtrip_and_epoch() {
        let c = AtomicCache::new(1 << 8);
        for i in 0..500u64 {
            c.insert(i, i * 7, (i % 21) as u32, i as u32 + 13);
        }
        let mut survived = 0;
        for i in 0..500u64 {
            if let Some(v) = c.get(i, i * 7, (i % 21) as u32) {
                assert_eq!(v, i as u32 + 13);
                survived += 1;
            }
        }
        assert!(survived > 0, "some entries must survive");
        c.bump_epoch();
        for i in 0..500u64 {
            assert_eq!(c.get(i, i * 7, (i % 21) as u32), None);
        }
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert!(s.hits >= survived);
    }

    #[test]
    fn epoch_and_tag_never_alias() {
        // Regression: fingerprinting the raw `tag ^ epoch` aliased (tag,
        // epoch) pairs across invalidations (tag 4 at epoch 8 == tag 12 at
        // epoch 0), resurrecting stale entries as false hits. Interleave
        // inserts with epoch bumps and probe the whole small-tag space.
        let c = AtomicCache::new(1 << 8);
        for round in 0..24u32 {
            c.insert(7, 9, round, 1000 + round);
            assert_eq!(c.get(7, 9, round), Some(1000 + round));
            c.bump_epoch();
            for tag in 0..64u32 {
                assert_eq!(
                    c.get(7, 9, tag),
                    None,
                    "round {round} tag {tag} resurrected"
                );
            }
        }
    }

    #[test]
    fn atomic_cache_distinct_tags_do_not_alias() {
        let c = AtomicCache::new(1 << 8);
        c.insert(5, 6, 1, 100);
        c.insert(5, 6, 2, 200);
        if let Some(v) = c.get(5, 6, 1) {
            assert_eq!(v, 100);
        }
        assert_eq!(c.get(5, 6, 2), Some(200));
    }

    #[test]
    fn atomic_cache_concurrent_hammer_returns_canonical_values() {
        // Many threads insert and read the same key population, where the
        // value is a pure function of the key: any hit must return exactly
        // that function's value (torn entries must never surface).
        let c = AtomicCache::new(1 << 8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    let mut state = t | 1;
                    for _ in 0..20_000 {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let k = state >> 48;
                        c.insert(k, k ^ 0xFFFF, 3, (k as u32).wrapping_mul(2654435761));
                        if let Some(v) = c.get(k, k ^ 0xFFFF, 3) {
                            assert_eq!(v, (k as u32).wrapping_mul(2654435761));
                        }
                    }
                });
            }
        });
        assert!(c.stats().inserts >= 80_000);
    }

    #[test]
    fn overlay_arena_alloc_get_reset() {
        let a = OverlayArena::new();
        assert!(a.is_empty());
        let i = a.alloc(1, 2, 3);
        let j = a.alloc(4, 5, 6);
        assert_eq!(a.get(i), (1, 2, 3));
        assert_eq!(a.get(j), (4, 5, 6));
        assert_eq!(a.len(), 2);
        a.reset();
        assert!(a.is_empty());
        let k = a.alloc(7, 8, 9);
        assert_eq!(k, 0, "indices restart after reset");
        assert_eq!(a.get(k), (7, 8, 9));
    }

    #[test]
    fn overlay_arena_crosses_segments() {
        let a = OverlayArena::new();
        let n = SEG_LEN as u32 + 10;
        for i in 0..n {
            assert_eq!(a.alloc(i, !i, i ^ 7), i);
        }
        for i in (0..n).step_by(1000) {
            assert_eq!(a.get(i), (i, !i, i ^ 7));
        }
    }

    #[test]
    fn fork_join_runs_every_task_once() {
        for threads in [1, 2, 4, 8] {
            let done: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            let stats = fork_join(threads, 100, |i| {
                done[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, d) in done.iter().enumerate() {
                assert_eq!(d.load(Ordering::Relaxed), 1, "task {i}, threads {threads}");
            }
            assert_eq!(stats.executed.iter().sum::<u64>(), 100);
            assert_eq!(
                stats.stolen,
                stats.executed[1..].iter().sum::<u64>(),
                "stolen = helper-executed"
            );
        }
    }

    #[test]
    fn fork_join_inline_when_single_threaded() {
        let stats = fork_join(1, 7, |_| {});
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.executed, vec![7]);
    }

    #[test]
    fn fork_join_surfaces_worker_panic_as_clean_error() {
        for threads in [1usize, 4] {
            let err = try_fork_join(threads, 64, |i| {
                if i == 13 {
                    panic!("deliberate failure in task {i}");
                }
            })
            .expect_err("a panicking task must surface");
            assert!(
                err.message.contains("deliberate failure"),
                "got: {}",
                err.message
            );
            assert!(err.to_string().contains("fork-join task"));
        }
        // The non-failing path is unchanged.
        assert!(try_fork_join(4, 16, |_| {}).is_ok());
    }

    #[test]
    fn poisoned_shard_is_a_clean_join_error_and_clear_recovers() {
        // Regression: a worker panicking inside `get_or_insert_with`'s make
        // closure used to poison the shard lock and cascade every other
        // worker into an opaque "shard lock poisoned" abort. Poison a shard
        // deliberately, then check (a) the pool reports ONE clean error at
        // join time and (b) `clear()` heals the table.
        let mut keys: Vec<K2> = (0..100u32).map(|i| K2(i, 7)).collect();
        keys[99] = K2(5, 7);
        let t = ShardedTable::new(1, 16); // 1 shard: every key hits it
        let err = try_fork_join(4, 32, |i| {
            let _ = t.get_or_insert_with(K2(i as u32, 7), &keys, || {
                if i == 0 {
                    panic!("worker died mid-insert");
                }
                i as u32
            });
        })
        .expect_err("the poisoned shard must fail the pool");
        assert!(
            err.message.contains("mid-insert") || err.message.contains("poisoned"),
            "got: {}",
            err.message
        );
        // Poison-tolerant maintenance still works…
        let _ = t.len();
        let _ = t.shard_stats();
        // …and clear() un-poisons the shard so the table is usable again.
        t.clear();
        assert_eq!(t.get_or_insert_with(K2(5, 7), &keys, || 99), 99);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn governed_fork_join_stops_between_tasks() {
        for threads in [1usize, 4] {
            let done = AtomicU64::new(0);
            // Stop once 5 tasks have run: no worker may claim a new task
            // after observing the predicate true.
            let (stats, stopped) = try_fork_join_governed(
                threads,
                1000,
                || done.load(Ordering::Relaxed) >= 5,
                |_| {
                    done.fetch_add(1, Ordering::Relaxed);
                },
            )
            .expect("no panics");
            assert!(stopped, "threads {threads}: predicate must stop the pool");
            let ran = stats.executed.iter().sum::<u64>();
            assert!(ran >= 5, "threads {threads}: ran {ran}");
            // Stop latency is bounded by in-flight tasks: one per worker.
            assert!(
                ran <= 5 + threads as u64,
                "threads {threads}: ran {ran} tasks after the stop"
            );
        }
        // A never-true predicate runs everything and reports no stop.
        let (stats, stopped) = try_fork_join_governed(4, 64, || false, |_| {}).unwrap();
        assert!(!stopped);
        assert_eq!(stats.executed.iter().sum::<u64>(), 64);
    }

    #[test]
    fn threads_env_parsing() {
        // Avoid mutating the process environment (other tests run in
        // parallel); only exercise the fallback path here.
        assert_eq!(threads_from_env(3), 3);
    }
}
