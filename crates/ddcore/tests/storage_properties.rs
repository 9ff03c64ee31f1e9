//! Randomized model checks and adaptation tests for the storage layer:
//! the key-less unique tables are driven against `std::HashMap` as a
//! reference model with their keys held in a side arena, the way the
//! managers hold them (including the in-place GC sweep, remove-by-id,
//! both deletion regimes — eager backward shift and deferred tombstoning —
//! clones edited independently, and forced hash rearrangements), tables
//! are forced through resizes, the 2-way computed cache through evictions
//! and epoch invalidation, and the concurrent sharded table through
//! racing multi-threaded insert storms.

use ddcore::cantor::{CantorHasher, HashArrangement};
use ddcore::par::{OverlayArena, ShardedTable};
use ddcore::table::{BucketTable, KeyStore, OpenTable, TableKey};
use ddcore::ComputedCache;
use std::collections::{HashMap, HashSet};
use std::fmt::Debug;
use std::hash::Hash;

#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
struct K2(u32, u32);

impl TableKey for K2 {
    fn table_hash(&self, h: &CantorHasher) -> u64 {
        h.hash2(self.0 as u64, self.1 as u64)
    }
}

/// A key whose hash collapses to four values under the default nesting
/// arrangement, so probe runs (or chains) grow long until the table
/// rotates its hasher — a rearrangement forced through the public
/// adaptive path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
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

struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The side key arena of the model checks: ids index `keys`, freed ids
/// are recycled first (a manager's node arena plus its free list).
#[derive(Clone, Debug)]
struct Arena<K> {
    keys: Vec<K>,
    free: Vec<u32>,
}

impl<K: TableKey> KeyStore<K> for Arena<K> {
    fn key_of(&self, id: u32) -> K {
        self.keys[id as usize]
    }
}

impl<K: TableKey> Arena<K> {
    fn alloc(&mut self, k: K) -> u32 {
        match self.free.pop() {
            Some(id) => {
                self.keys[id as usize] = k;
                id
            }
            None => {
                self.keys.push(k);
                (self.keys.len() - 1) as u32
            }
        }
    }
}

/// The API both sequential tables share, so one model check drives both.
trait SeqTable: Clone {
    fn with_capacity(n: usize) -> Self;
    fn len(&self) -> usize;
    fn find_or_insert<K: TableKey>(&mut self, k: K, a: &mut Arena<K>) -> u32;
    fn get<K: TableKey>(&mut self, k: &K, a: &Arena<K>) -> Option<u32>;
    fn peek<K: TableKey>(&self, k: &K, a: &Arena<K>) -> Option<u32>;
    fn remove<K: TableKey>(&mut self, id: u32, a: &Arena<K>) -> bool;
    fn retain<K: TableKey>(
        &mut self,
        a: &mut Arena<K>,
        keep: impl FnMut(&mut Arena<K>, u32) -> bool,
    );
    fn for_each(&self, f: impl FnMut(u32));
    fn clear(&mut self);
    fn rearrangements(&self) -> u64;
}

macro_rules! seq_table {
    ($t:ty) => {
        impl SeqTable for $t {
            fn with_capacity(n: usize) -> Self {
                <$t>::new(n)
            }
            fn len(&self) -> usize {
                <$t>::len(self)
            }
            fn find_or_insert<K: TableKey>(&mut self, k: K, a: &mut Arena<K>) -> u32 {
                self.get_or_insert_with(k, a, |a| a.alloc(k))
            }
            fn get<K: TableKey>(&mut self, k: &K, a: &Arena<K>) -> Option<u32> {
                <$t>::get(self, k, a)
            }
            fn peek<K: TableKey>(&self, k: &K, a: &Arena<K>) -> Option<u32> {
                <$t>::peek(self, k, a)
            }
            fn remove<K: TableKey>(&mut self, id: u32, a: &Arena<K>) -> bool {
                <$t>::remove(self, id, a)
            }
            fn retain<K: TableKey>(
                &mut self,
                a: &mut Arena<K>,
                keep: impl FnMut(&mut Arena<K>, u32) -> bool,
            ) {
                <$t>::retain(self, a, keep)
            }
            fn for_each(&self, f: impl FnMut(u32)) {
                <$t>::for_each(self, f)
            }
            fn clear(&mut self) {
                <$t>::clear(self)
            }
            fn rearrangements(&self) -> u64 {
                self.stats().rearrangements
            }
        }
    };
}
seq_table!(OpenTable);
seq_table!(BucketTable);

/// Table + arena + reference model, advanced together.
#[derive(Clone)]
struct Model<T, K> {
    t: T,
    a: Arena<K>,
    m: HashMap<K, u32>,
}

impl<T: SeqTable, K: TableKey + Hash + Debug> Model<T, K> {
    /// One random operation: find-or-insert, lookup, remove-by-id (of a
    /// stored id, or of a freed one that must not be found), a GC-shaped
    /// `retain` that frees its victims into the arena (one step in
    /// `8 × sweep_every`).
    fn step(&mut self, r: u64, universe: (u64, u64), sweep_every: u64, mk: fn(u32, u32) -> K) {
        let k = mk((r % universe.0) as u32, ((r >> 20) % universe.1) as u32);
        match (r >> 8) % 8 {
            0..=2 => {
                let expect = self.m.get(&k).copied();
                let id = self.t.find_or_insert(k, &mut self.a);
                match expect {
                    Some(e) => assert_eq!(id, e, "stale hit for {k:?}"),
                    None => {
                        assert_eq!(self.a.key_of(id), k, "miss must store the new node");
                        self.m.insert(k, id);
                    }
                }
            }
            3 => assert_eq!(self.t.get(&k, &self.a), self.m.get(&k).copied()),
            4 | 5 => match self.m.remove(&k) {
                Some(id) => {
                    assert!(self.t.remove(id, &self.a), "stored id {id} not removed");
                    self.a.free.push(id);
                }
                None => {
                    if let Some(&id) = self.a.free.last() {
                        assert!(!self.t.remove(id, &self.a), "freed id {id} removed");
                    }
                }
            },
            6 if (r >> 40).is_multiple_of(sweep_every) => {
                let cut = (r >> 40) % 3;
                self.m.retain(|_, id| u64::from(*id) % 3 != cut);
                self.t.retain(&mut self.a, |a, id| {
                    let keep = u64::from(id) % 3 != cut;
                    if !keep {
                        a.free.push(id);
                    }
                    keep
                });
            }
            _ => assert_eq!(self.t.peek(&k, &self.a), self.m.get(&k).copied()),
        }
        assert_eq!(self.t.len(), self.m.len(), "len drift");
    }

    /// Every model entry is found by both lookups, and the table
    /// enumerates exactly the model's ids.
    fn clear(&mut self) {
        self.m.clear();
        self.t.clear();
        self.a.free = (0..self.a.keys.len() as u32).collect();
    }

    fn audit(&self, ctx: &str) {
        for (k, &id) in &self.m {
            assert_eq!(self.t.peek(k, &self.a), Some(id), "{ctx}: {k:?} lost");
        }
        let mut seen = HashSet::new();
        self.t.for_each(|id| {
            assert_eq!(
                self.m.get(&self.a.key_of(id)),
                Some(&id),
                "{ctx}: foreign id {id}"
            );
            assert!(seen.insert(id), "{ctx}: id {id} enumerated twice");
        });
        assert_eq!(seen.len(), self.m.len(), "{ctx}: enumeration size");
    }
}

/// Drive a table through `steps` random operations over a
/// `universe.0 × universe.1` key space (sweeps every `8 × sweep_every`
/// steps on average, see [`Model::step`]); halfway, clone table, arena and
/// model, run a burst of independent edits on the clone, and check that
/// neither side sees the other's edits; at three quarters, clear the
/// table and go on. Returns the model and the largest size the table
/// reached.
fn model_check<T: SeqTable, K: TableKey + Hash + Debug>(
    seed: u64,
    steps: usize,
    universe: (u64, u64),
    sweep_every: u64,
    mk: fn(u32, u32) -> K,
) -> (Model<T, K>, usize) {
    let mut rng = SplitMix(seed);
    let mut s: Model<T, K> = Model {
        t: T::with_capacity(4),
        a: Arena {
            keys: Vec::new(),
            free: Vec::new(),
        },
        m: HashMap::new(),
    };
    let mut peak = 0;
    for step in 0..steps {
        s.step(rng.next(), universe, sweep_every, mk);
        peak = peak.max(s.m.len());
        if step % 2000 == 1999 {
            s.audit(&format!("step {step}"));
        }
        if step == steps / 2 {
            let mut fork = s.clone();
            let mut fork_rng = SplitMix(seed ^ 0xF0_4B);
            for _ in 0..2000 {
                fork.step(fork_rng.next(), universe, sweep_every, mk);
            }
            fork.audit("fork after its edits");
            s.audit("original after the fork's edits");
        }
        if step == steps * 3 / 4 {
            s.clear();
            s.audit("after clear");
        }
    }
    s.audit("end");
    (s, peak)
}

/// The deferred-repair threshold in entries: a table of at most
/// [`OpenTable::DEFER_REPAIR_MAX_CAP`] slots holds at most 75 % of them.
const SMALL_REGIME_MAX_LEN: usize = OpenTable::DEFER_REPAIR_MAX_CAP * 3 / 4;

/// Both sequential tables agree with the reference model in random
/// interleavings of every operation, on both sides of the deferred-repair
/// threshold, and across clones edited independently.
#[test]
fn key_less_tables_match_reference_model_in_both_regimes() {
    fn both_regimes<T: SeqTable>() {
        // Small universe: the table never leaves the deferred regime.
        let (_, peak) = model_check::<T, K2>(0x5111, 12_000, (29, 31), 32, K2);
        assert!(peak <= SMALL_REGIME_MAX_LEN, "small run peaked at {peak}");
        // Large universe: the table grows far past the threshold, where
        // deletions backward-shift eagerly.
        let (_, peak) = model_check::<T, K2>(0x1A26, 40_000, (211, 97), 1 << 12, K2);
        assert!(
            peak > 2 * SMALL_REGIME_MAX_LEN,
            "large run peaked at only {peak}"
        );
    }
    both_regimes::<OpenTable>();
    both_regimes::<BucketTable>();
}

/// A hash that clusters every key forces the adaptive rearrangement; the
/// model check still holds through it, in both regimes, and the rotation
/// happened.
#[test]
fn key_less_tables_survive_forced_rearrangement() {
    fn forced<T: SeqTable>() {
        for (universe, steps, sweep_every) in [((23, 29), 12_000, 32), ((149, 71), 30_000, 1 << 12)]
        {
            let (s, peak) = model_check::<T, Clumped>(0xC1, steps, universe, sweep_every, Clumped);
            assert_eq!(
                peak > SMALL_REGIME_MAX_LEN,
                steps > 12_000,
                "regime of {universe:?} (peak {peak})"
            );
            assert!(
                s.t.rearrangements() > 0,
                "clustered keys must rotate the hasher ({universe:?})"
            );
        }
    }
    forced::<OpenTable>();
    forced::<BucketTable>();
}

/// The overlay's key store: a sharded-table id's key is its arena
/// record's words.
struct Words<'a>(&'a OverlayArena);

impl KeyStore<K2> for Words<'_> {
    fn key_of(&self, id: u32) -> K2 {
        let (a, b, _) = self.0.get(id);
        K2(a, b)
    }
}

impl KeyStore<Clumped> for Words<'_> {
    fn key_of(&self, id: u32) -> Clumped {
        let (a, b, _) = self.0.get(id);
        Clumped(a, b)
    }
}

/// The sharded table against the model, with keys in an overlay arena:
/// rounds of racing find-or-insert storms (clustered keys force shard
/// rearrangements), each ended by a `clear` plus arena reset as the
/// pipeline's overlay recycle does. Every id returned names its own key,
/// and each key is materialized exactly once.
#[test]
fn sharded_table_matches_model_across_clears() {
    fn storm<K: TableKey + Hash + Debug + Send + Sync>(mk: fn(u32, u32) -> K)
    where
        for<'a> Words<'a>: KeyStore<K>,
    {
        let arena = OverlayArena::new();
        let t = ShardedTable::new(4, 16);
        for (round, threads) in [1usize, 4, 2].into_iter().enumerate() {
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let (t, arena) = (&t, &arena);
                    s.spawn(move || {
                        let keys = Words(arena);
                        let mut rng = SplitMix(0xB0 + (round * 8 + tid) as u64);
                        for _ in 0..6_000 {
                            let r = rng.next();
                            let (a, b) = ((r % 173) as u32, ((r >> 9) % 59) as u32);
                            let id = t.get_or_insert_with(mk(a, b), &keys, || arena.alloc(a, b, 0));
                            assert_eq!(
                                KeyStore::<K>::key_of(&keys, id),
                                mk(a, b),
                                "id names a foreign key"
                            );
                        }
                    });
                }
            });
            let mut m: HashSet<K> = HashSet::new();
            for tid in 0..threads {
                let mut rng = SplitMix(0xB0 + (round * 8 + tid) as u64);
                for _ in 0..6_000 {
                    let r = rng.next();
                    m.insert(mk((r % 173) as u32, ((r >> 9) % 59) as u32));
                }
            }
            assert_eq!(t.len(), m.len(), "round {round}");
            assert_eq!(arena.len() as usize, m.len(), "one record per key");
            let keys = Words(&arena);
            let mut seen = HashSet::new();
            t.for_each(|id| assert!(seen.insert(KeyStore::<K>::key_of(&keys, id))));
            assert_eq!(seen, m, "round {round}");
            t.clear();
            arena.reset();
            assert!(t.is_empty());
        }
    }
    storm(K2);
    storm(Clumped);
}

/// The open table must agree with a reference map under a random workload
/// of combined lookups, inserts, removals and retain sweeps. After every
/// operation, every reference entry must still be reachable — this is the
/// test that catches broken backward-shift deletion and relocation bugs.
#[test]
fn open_table_matches_reference_model() {
    let mut rng = SplitMix(0xDEAD_BEEF);
    for round in 0..60 {
        let mut keys: Vec<K2> = Vec::new();
        let mut t = OpenTable::new(4);
        let mut m: HashMap<K2, u32> = HashMap::new();
        for step in 0..4000 {
            let r = rng.next();
            let k = K2((r % 97) as u32, ((r >> 8) % 61) as u32);
            match r % 5 {
                0 | 1 => {
                    let expect = m.get(&k).copied();
                    let next_id = keys.len() as u32;
                    let v = t.get_or_insert_with(k, &mut keys, |keys| {
                        keys.push(k);
                        next_id
                    });
                    match expect {
                        Some(e) => assert_eq!(v, e, "round {round} step {step}: stale hit"),
                        None => {
                            assert_eq!(v, next_id, "round {round} step {step}: miss value");
                            m.insert(k, next_id);
                        }
                    }
                }
                2 => {
                    assert_eq!(
                        t.get(&k, &keys),
                        m.get(&k).copied(),
                        "round {round} step {step}"
                    );
                }
                3 => match m.remove(&k) {
                    Some(id) => assert!(t.remove(id, &keys), "round {round} step {step}"),
                    None => assert_eq!(t.get(&k, &keys), None, "round {round} step {step}"),
                },
                _ => {
                    if r % 40 == 4 {
                        m.retain(|_, v| *v % 3 != 0);
                        t.retain(&mut keys, |_, v| v % 3 != 0);
                    } else if let std::collections::hash_map::Entry::Vacant(e) = m.entry(k) {
                        keys.push(k);
                        t.insert(keys.len() as u32 - 1, &keys);
                        e.insert(keys.len() as u32 - 1);
                    }
                }
            }
            assert_eq!(t.len(), m.len(), "round {round} step {step}: len drift");
        }
        // Full audit at the end of the round.
        for (k, v) in &m {
            assert_eq!(t.get(k, &keys), Some(*v), "round {round}: entry {k:?} lost");
        }
        let mut seen = 0;
        t.for_each(|id| {
            assert_eq!(m.get(&keys[id as usize]), Some(&id));
            seen += 1;
        });
        assert_eq!(seen, m.len());
    }
}

/// Growth must be observable through the stats and preserve every entry.
#[test]
fn open_table_resize_preserves_entries() {
    let keys: Vec<K2> = (0..50_000u32).map(|i| K2(i, i.wrapping_mul(7))).collect();
    let mut t = OpenTable::new(4);
    for i in 0..50_000u32 {
        t.insert(i, &keys);
    }
    assert!(t.stats().resizes > 5, "growth must be tracked");
    for i in 0..50_000u32 {
        assert_eq!(
            t.get(&K2(i, i.wrapping_mul(7)), &keys),
            Some(i),
            "key {i} lost in resize"
        );
    }
}

/// Force a hasher rearrangement through the public adaptive path: under
/// the default arrangement every `Clumped` key hashes to one of four
/// values, so a window of missing-key lookups walks the whole cluster and
/// the next insert rotates the hasher. Every entry survives the rotation.
#[test]
fn open_table_rearrangement_preserves_entries() {
    let mut keys: Vec<Clumped> = (0..512u32).map(|i| Clumped(i, 1)).collect();
    let mut t = OpenTable::new(4);
    for i in 0..512u32 {
        t.insert(i, &keys);
    }
    let arrangement_before = t.hasher().arrangement();
    for i in 0..5000u32 {
        assert_eq!(t.get(&Clumped(i + 100_000, 9), &keys), None);
    }
    keys.push(Clumped(1_000_000, 3));
    t.insert(512, &keys);
    assert!(
        t.stats().rearrangements > 0,
        "a clustered window must rotate the hasher"
    );
    assert_ne!(
        t.hasher().arrangement(),
        arrangement_before,
        "rearrangement must rotate the hash arrangement"
    );
    for (i, k) in (0u32..).zip(&keys) {
        assert_eq!(t.get(k, &keys), Some(i), "key {i} lost in rearrangement");
    }
}

/// Deletion churn pinned inside the deferred-repair (L1-resident) regime:
/// the key universe is small enough that the table never outgrows the
/// deferral cap, so every removal tombstones and the batched sweep must
/// eventually compact — all while agreeing with the reference model.
#[test]
fn open_table_deferred_repair_matches_reference_model() {
    let mut rng = SplitMix(0xF1E2_D3C4);
    let mut keys: Vec<K2> = Vec::new();
    let mut t = OpenTable::new(64);
    let mut m: HashMap<K2, u32> = HashMap::new();
    for step in 0..60_000 {
        let r = rng.next();
        let k = K2((r % 29) as u32, ((r >> 8) % 17) as u32);
        match r % 4 {
            0 | 1 => {
                let expect = m.get(&k).copied();
                let v = t.get_or_insert_with(k, &mut keys, |keys| {
                    keys.push(k);
                    keys.len() as u32 - 1
                });
                match expect {
                    Some(e) => assert_eq!(v, e, "step {step}"),
                    None => {
                        m.insert(k, v);
                    }
                }
            }
            2 => match m.remove(&k) {
                Some(id) => assert!(t.remove(id, &keys), "step {step}"),
                None => assert_eq!(t.get(&k, &keys), None, "step {step}"),
            },
            _ => {
                if r % 64 == 3 {
                    m.retain(|_, v| *v % 7 != 0);
                    t.retain(&mut keys, |_, v| v % 7 != 0);
                } else {
                    assert_eq!(t.get(&k, &keys), m.get(&k).copied(), "step {step}");
                }
            }
        }
        assert_eq!(t.len(), m.len(), "step {step}: len drift");
    }
    for (k, v) in &m {
        assert_eq!(t.get(k, &keys), Some(*v), "entry {k:?} lost");
    }
    // A pure deletion burst (no inserts to recycle tombstones) must cross
    // the sweep threshold: fill the whole key universe, then drain it.
    for a in 0..29u32 {
        for b in 0..17u32 {
            let k = K2(a, b);
            if let std::collections::hash_map::Entry::Vacant(e) = m.entry(k) {
                keys.push(k);
                t.insert(keys.len() as u32 - 1, &keys);
                e.insert(keys.len() as u32 - 1);
            }
        }
    }
    let stored: Vec<u32> = m.values().copied().collect();
    for id in stored {
        assert!(t.remove(id, &keys));
    }
    assert!(t.is_empty());
    assert!(
        t.stats().batched_repairs > 0,
        "a full drain in the small regime must trigger the batched sweep"
    );
}

/// Concurrent-insert model check of the sharded table: racing threads
/// hammer overlapping key populations through `get_or_insert_with` (the
/// winner's record is the one every racer must get back, so the
/// first-wins race is observable), and the final contents must equal the
/// single-threaded reference model exactly.
#[test]
fn sharded_table_concurrent_inserts_match_reference_model() {
    for threads in [2usize, 4, 8] {
        let arena = OverlayArena::new();
        let t = ShardedTable::new(8, 16);
        std::thread::scope(|s| {
            for tid in 0..threads {
                let (t, arena) = (&t, &arena);
                s.spawn(move || {
                    let keys = Words(arena);
                    let mut rng = SplitMix(0xACE0 + tid as u64);
                    for _ in 0..20_000 {
                        let r = rng.next();
                        let k = K2((r % 401) as u32, ((r >> 9) % 127) as u32);
                        let id = t.get_or_insert_with(k, &keys, || arena.alloc(k.0, k.1, 0));
                        assert_eq!(
                            KeyStore::<K2>::key_of(&keys, id),
                            k,
                            "a racing insert must never surface a foreign value"
                        );
                    }
                });
            }
        });
        // Reference model: replay the same key universe single-threaded.
        let mut m: HashSet<K2> = HashSet::new();
        for tid in 0..threads {
            let mut rng = SplitMix(0xACE0 + tid as u64);
            for _ in 0..20_000 {
                let r = rng.next();
                m.insert(K2((r % 401) as u32, ((r >> 9) % 127) as u32));
            }
        }
        assert_eq!(t.len(), m.len(), "threads {threads}");
        let keys = Words(&arena);
        let mut seen = 0usize;
        t.for_each(|id| {
            let k: K2 = keys.key_of(id);
            assert!(m.contains(&k), "threads {threads}: foreign entry {k:?}");
            seen += 1;
        });
        assert_eq!(seen, m.len(), "threads {threads}");
        let occ: usize = t.shard_stats().iter().map(|s| s.len).sum();
        assert_eq!(occ, m.len(), "threads {threads}: shard occupancy drift");
    }
}

/// The chained table honours the same model (regression cover for the
/// `chained_tables` ablation path).
#[test]
fn bucket_table_matches_reference_model() {
    let mut rng = SplitMix(0x5EED);
    let mut keys: Vec<K2> = Vec::new();
    let mut t = BucketTable::new(4);
    let mut m: HashMap<K2, u32> = HashMap::new();
    for _ in 0..30_000 {
        let r = rng.next();
        let k = K2((r % 211) as u32, ((r >> 9) % 89) as u32);
        match r % 4 {
            0 | 1 => {
                if let std::collections::hash_map::Entry::Vacant(e) = m.entry(k) {
                    keys.push(k);
                    t.insert(keys.len() as u32 - 1, &keys);
                    e.insert(keys.len() as u32 - 1);
                }
            }
            2 => assert_eq!(t.get(&k, &keys), m.get(&k).copied()),
            _ => match m.remove(&k) {
                Some(id) => assert!(t.remove(id, &keys)),
                None => assert_eq!(t.get(&k, &keys), None),
            },
        }
        assert_eq!(t.len(), m.len());
    }
}

/// A full 2-way set must evict exactly one entry per conflicting insert
/// and count it; the aged (older) way is the victim.
#[test]
fn cache_eviction_is_counted_and_age_based() {
    let mut c = ComputedCache::with_max(16, 16);
    // Find three keys mapping to one set by brute force.
    let probe = ComputedCache::with_max(16, 16);
    let base = probe_set(&probe, 0);
    let mut same_set = vec![0u64];
    let mut k = 1u64;
    while same_set.len() < 3 {
        if probe_set(&probe, k) == base {
            same_set.push(k);
        }
        k += 1;
    }
    let (a, b, d) = (same_set[0], same_set[1], same_set[2]);
    c.insert(a, a, 1, 100); // way 0 (older after next insert)
    c.insert(b, b, 1, 200); // way 1
    assert_eq!(c.stats().evictions, 0);
    c.insert(d, d, 1, 300); // evicts a (the older way)
    assert_eq!(c.stats().evictions, 1);
    assert_eq!(c.get(a, a, 1), None, "oldest entry must be the victim");
    assert_eq!(c.get(b, b, 1), Some(200), "newer way must survive");
    assert_eq!(c.get(d, d, 1), Some(300));
}

/// Set index of key `(k, k, tag 1)` — mirrors the cache's internal
/// `set_base` (a fresh cache always starts from the default hasher).
fn probe_set(c: &ComputedCache, k: u64) -> usize {
    CantorHasher::new().hash3(k, k, 1) as usize & (c.capacity() / 2 - 1)
}

/// Epoch invalidation must kill every live entry at once, lazily, and be
/// counted — and the cache must keep working afterwards.
#[test]
fn cache_epoch_invalidation_drops_all_entries() {
    let mut c = ComputedCache::new(64);
    for i in 0..40u64 {
        c.insert(i, i * 3, 2, i + 7);
    }
    let live_before: usize = (0..40u64).filter(|&i| c.get(i, i * 3, 2).is_some()).count();
    assert!(live_before > 0);
    c.invalidate();
    assert_eq!(c.stats().invalidations, 1);
    for i in 0..40u64 {
        assert_eq!(
            c.get(i, i * 3, 2),
            None,
            "entry {i} survived the epoch bump"
        );
    }
    // Reinsertion under the new epoch works.
    c.insert(1, 2, 3, 4);
    assert_eq!(c.get(1, 2, 3), Some(4));
}

/// Stale-epoch slots must be reused silently (no eviction counted): after
/// an invalidation the cache is morally empty.
#[test]
fn stale_epoch_slots_are_not_evictions() {
    let mut c = ComputedCache::with_max(16, 16);
    for i in 0..100u64 {
        c.insert(i, i, 1, i);
    }
    let evictions_before = c.stats().evictions;
    c.invalidate();
    // One fresh key per set: every insert lands on a stale slot.
    let mut covered = std::collections::HashSet::new();
    let mut k = 200u64;
    while covered.len() < c.capacity() / 2 {
        if covered.insert(probe_set(&c, k)) {
            c.insert(k, k, 1, k);
        }
        k += 1;
    }
    // Overwriting stale entries is not an eviction of live data.
    assert_eq!(
        c.stats().evictions,
        evictions_before,
        "stale slots must be reused without counting evictions"
    );
}
