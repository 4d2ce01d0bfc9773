//! The fleet's shared read-only decompressed-region cache.
//!
//! Many concurrent instances of one image decompress the same cold regions.
//! Host-side, that work is identical every time — the decoded instruction
//! vector is a pure function of `(image, region)` — so the fleet keeps one
//! copy in a process-wide cache and hands refcounted read-only views to the
//! instances. Crucially this shares **host** work only: each instance still
//! writes the decoded words into its own simulated memory and charges the
//! same simulated cycles it would have solo (the charge is a function of
//! `bits`/`insts`, which the cached entry carries), so per-instance cycle
//! counts stay byte/cycle-identical to a solo `squashrun` — the determinism
//! bridge `tests/fleet.rs` asserts.
//!
//! Design points, each load-bearing for hostile multi-tenancy:
//!
//! * **Sharded.** Entries are distributed over `shards` independent mutexes
//!   by a hash of `(image, region)`, so unrelated tenants do not serialize
//!   on one lock.
//! * **Refcounted.** [`RegionRef`] guards count live readers per entry;
//!   eviction (LRU within a shard) only ever reclaims entries with zero
//!   readers. A full shard whose entries are all pinned *bypasses* the cache
//!   for the new region instead of blocking or evicting under a reader.
//! * **Per-tenant quotas and exact attribution.** Every cached entry is
//!   owned by the tenant that inserted it and counts against that tenant's
//!   slot quota; at quota, further fills bypass the cache (the tenant keeps
//!   running, merely without sharing — graceful degradation), so one greedy
//!   tenant cannot evict the whole fleet's working set.
//! * **Failures are never cached.** A region that fails to decode returns
//!   its error to the caller untouched; the next request re-attempts, so a
//!   transiently-poisoned entry cannot wedge the key.
//!
//! Counter discipline: `acquires == releases` once all guards are dropped
//! and `live_readers == 0` — the contention stress tests pin this, which is
//! how "no double-free / no leak" is made checkable without `unsafe`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use squash_isa::Inst;

/// One decoded region: what the stream model produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The decoded instructions, pre-relocation (relocation is per-slot and
    /// therefore per-instance).
    pub insts: Vec<Inst>,
    /// Bits the decoder consumed — the cycle charge is derived from this,
    /// identically for cached and fresh decodes.
    pub bits: u64,
}

/// Cache key: the store-assigned image id and the region index.
type Key = (u64, u16);

/// A resident entry with its reader count and LRU stamp.
#[derive(Debug)]
struct Entry {
    data: Arc<Decoded>,
    /// Live [`RegionRef`] guards for this entry. Eviction skips any entry
    /// with `readers > 0`.
    readers: usize,
    /// Shard-local logical time of last use.
    last_use: u64,
    /// The tenant whose quota this entry occupies.
    owner: u32,
}

#[derive(Debug, Default)]
struct Shard {
    entries: HashMap<Key, Entry>,
    tick: u64,
}

/// Point-in-time counters for the shared cache (saturating reads of
/// monotonic atomics plus a lock-sweep for the live gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Acquisitions served from a resident entry.
    pub hits: u64,
    /// Acquisitions that had to decode (and, quota permitting, insert).
    pub misses: u64,
    /// Entries reclaimed to make room.
    pub evictions: u64,
    /// Decodes that skipped insertion: owner over quota, or the shard full
    /// of pinned entries. The request still succeeded — this counts lost
    /// sharing, not failures.
    pub bypasses: u64,
    /// Total guard acquisitions handed out.
    pub acquires: u64,
    /// Total guard releases observed. Equals `acquires` when no guard is
    /// live; the refcount stress test pins this.
    pub releases: u64,
    /// Entries currently resident across all shards.
    pub live_entries: u64,
    /// Readers currently pinned across all entries.
    pub live_readers: u64,
}

/// The process-wide shared region cache. Cheap to clone via [`Arc`]; see
/// the module docs for the contention and attribution design.
pub struct SharedRegionCache {
    shards: Box<[Mutex<Shard>]>,
    /// Capacity per shard; total capacity is `shards.len() * shard_cap`.
    shard_cap: usize,
    /// Live-entry count per tenant id (quota accounting).
    tenant_live: Mutex<HashMap<u32, usize>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    bypasses: AtomicU64,
    acquires: AtomicU64,
    releases: AtomicU64,
}

impl std::fmt::Debug for SharedRegionCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedRegionCache")
            .field("shards", &self.shards.len())
            .field("shard_cap", &self.shard_cap)
            .field("stats", &self.stats())
            .finish()
    }
}

/// SplitMix64 finalizer — a good enough shard spreader for `(image,
/// region)` keys, dependency-free and stable across platforms.
fn spread(key: Key) -> u64 {
    let mut z = key.0 ^ ((key.1 as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Locks a possibly-poisoned mutex, recovering the data. A panic elsewhere
/// in the fleet (already contained by the worker's unwind guard) must not
/// cascade into every other tenant's cache access.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl SharedRegionCache {
    /// Creates a cache with `shards` independent shards (rounded up to a
    /// power of two, at least one) of `shard_cap` entries each.
    pub fn new(shards: usize, shard_cap: usize) -> Arc<SharedRegionCache> {
        let n = shards.max(1).next_power_of_two();
        Arc::new(SharedRegionCache {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap: shard_cap.max(1),
            tenant_live: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            acquires: AtomicU64::new(0),
            releases: AtomicU64::new(0),
        })
    }

    /// A per-instance handle binding this cache to one `(image, tenant)`
    /// pair — what [`crate::pipeline::RunConfig::decode_cache`] takes.
    /// `quota` caps how many entries the tenant may keep resident.
    pub fn handle(
        self: &Arc<SharedRegionCache>,
        image: u64,
        tenant: u32,
        quota: usize,
    ) -> CacheHandle {
        CacheHandle { cache: Arc::clone(self), image, tenant, quota }
    }

    fn shard(&self, key: Key) -> &Mutex<Shard> {
        let idx = (spread(key) as usize) & (self.shards.len() - 1);
        &self.shards[idx]
    }

    /// Gets the decoded region for `key`, running `decode` on a miss.
    /// Owner-side quota and shard capacity decide whether a miss is
    /// inserted or bypasses the cache; either way the caller gets the data.
    fn get_or_decode<E>(
        &self,
        key: Key,
        owner: u32,
        quota: usize,
        decode: impl FnOnce() -> Result<Decoded, E>,
    ) -> Result<(Arc<Decoded>, bool), E> {
        {
            let mut shard = lock_recover(self.shard(key));
            shard.tick += 1;
            let tick = shard.tick;
            if let Some(e) = shard.entries.get_mut(&key) {
                e.readers += 1;
                e.last_use = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.acquires.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&e.data), true));
            }
        }
        // Decode *outside* the shard lock: decoding is the expensive part,
        // and holding the lock across it would serialize the very work the
        // shards exist to parallelize. Two racing threads may both decode
        // one region; the loser's insert finds the key resident and takes a
        // hit instead — wasted host work, never wrong data (the decode is a
        // pure function).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let data = Arc::new(decode()?);
        // Quota check: over-quota owners get the data uncached.
        let under_quota = {
            let mut live = lock_recover(&self.tenant_live);
            let n = live.entry(owner).or_insert(0);
            if *n < quota {
                *n += 1;
                true
            } else {
                false
            }
        };
        if !under_quota {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
            return Ok((data, false));
        }
        let mut shard = lock_recover(self.shard(key));
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(e) = shard.entries.get_mut(&key) {
            // Lost the decode race; return the quota charge and read the
            // winner's entry.
            e.readers += 1;
            e.last_use = tick;
            self.uncharge(owner);
            self.acquires.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(&e.data), true));
        }
        if shard.entries.len() >= self.shard_cap {
            // Evict the least recently used entry with no live readers.
            let victim = shard
                .entries
                .iter()
                .filter(|(_, e)| e.readers == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&k, _)| k);
            match victim {
                Some(v) => {
                    let evicted = shard.entries.remove(&v).expect("victim key just found");
                    debug_assert_eq!(evicted.readers, 0, "evicted a pinned entry");
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.uncharge(evicted.owner);
                }
                None => {
                    // Every entry is pinned: bypass rather than block.
                    self.uncharge(owner);
                    self.bypasses.fetch_add(1, Ordering::Relaxed);
                    return Ok((data, false));
                }
            }
        }
        shard.entries.insert(
            key,
            Entry { data: Arc::clone(&data), readers: 1, last_use: tick, owner },
        );
        self.acquires.fetch_add(1, Ordering::Relaxed);
        Ok((data, true))
    }

    /// Returns one live-entry charge to `owner`'s quota.
    fn uncharge(&self, owner: u32) {
        let mut live = lock_recover(&self.tenant_live);
        if let Some(n) = live.get_mut(&owner) {
            *n = n.saturating_sub(1);
        }
    }

    /// Drops one reader from `key` (guard release path).
    fn release(&self, key: Key) {
        self.releases.fetch_add(1, Ordering::Relaxed);
        let mut shard = lock_recover(self.shard(key));
        if let Some(e) = shard.entries.get_mut(&key) {
            e.readers = e.readers.saturating_sub(1);
        }
    }

    /// Current counters (see [`CacheStats`]).
    pub fn stats(&self) -> CacheStats {
        let mut live_entries = 0u64;
        let mut live_readers = 0u64;
        for shard in self.shards.iter() {
            let shard = lock_recover(shard);
            live_entries += shard.entries.len() as u64;
            live_readers += shard.entries.values().map(|e| e.readers as u64).sum::<u64>();
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            acquires: self.acquires.load(Ordering::Relaxed),
            releases: self.releases.load(Ordering::Relaxed),
            live_entries,
            live_readers,
        }
    }

    /// Live resident entries attributed to `tenant` (quota accounting view).
    pub fn tenant_live(&self, tenant: u32) -> usize {
        lock_recover(&self.tenant_live).get(&tenant).copied().unwrap_or(0)
    }
}

/// A cache bound to one `(image, tenant, quota)` triple; what the runtime
/// service holds. Cloning shares the underlying cache.
#[derive(Debug, Clone)]
pub struct CacheHandle {
    cache: Arc<SharedRegionCache>,
    image: u64,
    tenant: u32,
    quota: usize,
}

impl CacheHandle {
    /// Decoded data for `region`, shared when resident, decoding via
    /// `decode` otherwise. Errors from `decode` pass through uncached.
    pub fn get_or_decode<E>(
        &self,
        region: u16,
        decode: impl FnOnce() -> Result<Decoded, E>,
    ) -> Result<RegionRef, E> {
        let key = (self.image, region);
        let (data, cached) =
            self.cache.get_or_decode(key, self.tenant, self.quota, decode)?;
        Ok(RegionRef {
            data,
            slot: cached.then(|| (Arc::clone(&self.cache), key)),
        })
    }

    /// The underlying shared cache.
    pub fn cache(&self) -> &Arc<SharedRegionCache> {
        &self.cache
    }
}

/// A refcounted read-only view of a decoded region. While any `RegionRef`
/// for an entry is live, eviction will not reclaim it; dropping the guard
/// releases the reader slot. A bypassed (uncached) decode yields a guard
/// with no slot — same API, nothing to release.
#[derive(Debug)]
pub struct RegionRef {
    data: Arc<Decoded>,
    slot: Option<(Arc<SharedRegionCache>, Key)>,
}

impl std::ops::Deref for RegionRef {
    type Target = Decoded;
    fn deref(&self) -> &Decoded {
        &self.data
    }
}

impl Drop for RegionRef {
    fn drop(&mut self) {
        if let Some((cache, key)) = self.slot.take() {
            cache.release(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use squash_isa::{AluOp, Reg};

    fn decoded(tag: i16) -> Decoded {
        Decoded {
            insts: vec![Inst::Imm { func: AluOp::Add, ra: Reg::T0, lit: tag as u8, rc: Reg::T0 }],
            bits: tag as u64 * 7 + 3,
        }
    }

    #[test]
    fn hit_miss_and_release_accounting() {
        let cache = SharedRegionCache::new(4, 4);
        let h = cache.handle(1, 0, 16);
        let a = h.get_or_decode::<()>(5, || Ok(decoded(5))).unwrap();
        assert_eq!(a.bits, decoded(5).bits);
        let b = h.get_or_decode::<()>(5, || panic!("must hit")).unwrap();
        assert_eq!(b.insts, a.insts);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.live_readers, 2);
        drop(a);
        drop(b);
        let s = cache.stats();
        assert_eq!(s.live_readers, 0);
        assert_eq!(s.acquires, s.releases);
        assert_eq!(s.live_entries, 1);
    }

    #[test]
    fn decode_errors_pass_through_uncached() {
        let cache = SharedRegionCache::new(1, 4);
        let h = cache.handle(9, 0, 16);
        let e = h.get_or_decode::<&str>(0, || Err("boom")).unwrap_err();
        assert_eq!(e, "boom");
        assert_eq!(cache.stats().live_entries, 0);
        // The key is not poisoned: a later good decode caches normally.
        let ok = h.get_or_decode::<&str>(0, || Ok(decoded(1))).unwrap();
        assert_eq!(cache.stats().live_entries, 1);
        drop(ok);
    }

    #[test]
    fn eviction_skips_pinned_entries() {
        // One shard, capacity 2. Pin region 0; fill with 1; region 2 must
        // evict 1 (unpinned), never 0.
        let cache = SharedRegionCache::new(1, 2);
        let h = cache.handle(1, 0, 16);
        let pinned = h.get_or_decode::<()>(0, || Ok(decoded(0))).unwrap();
        drop(h.get_or_decode::<()>(1, || Ok(decoded(1))).unwrap());
        drop(h.get_or_decode::<()>(2, || Ok(decoded(2))).unwrap());
        assert_eq!(cache.stats().evictions, 1);
        // Region 0 is still resident — no decode happens.
        let again = h.get_or_decode::<()>(0, || panic!("pinned entry was evicted")).unwrap();
        drop(again);
        drop(pinned);
        // With both capacity slots pinned, a third region bypasses.
        let p1 = h.get_or_decode::<()>(0, || Ok(decoded(0))).unwrap();
        let p2 = h.get_or_decode::<()>(2, || Ok(decoded(2))).unwrap();
        let by = h.get_or_decode::<()>(7, || Ok(decoded(7))).unwrap();
        assert!(cache.stats().bypasses >= 1);
        drop((p1, p2, by));
        let s = cache.stats();
        assert_eq!(s.acquires, s.releases);
        assert_eq!(s.live_readers, 0);
    }

    #[test]
    fn tenant_quota_bypasses_not_evicts() {
        let cache = SharedRegionCache::new(1, 8);
        let hog = cache.handle(1, 7, 2);
        for r in 0..4u16 {
            drop(hog.get_or_decode::<()>(r, || Ok(decoded(r as i16))).unwrap());
        }
        // Only 2 entries stuck; the rest bypassed.
        assert_eq!(cache.tenant_live(7), 2);
        assert_eq!(cache.stats().live_entries, 2);
        assert_eq!(cache.stats().bypasses, 2);
        // Another tenant is unaffected by the hog's quota exhaustion.
        let other = cache.handle(1, 8, 2);
        drop(other.get_or_decode::<()>(9, || Ok(decoded(9))).unwrap());
        assert_eq!(cache.tenant_live(8), 1);
    }
}
