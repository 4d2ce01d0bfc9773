//! An optional instruction-cache model.
//!
//! The paper's timing machine is a Compaq Alpha 21264 with a 64 KB,
//! two-way set-associative instruction cache, and its decompressor "flushes
//! the instruction cache, then transfers control" after filling the runtime
//! buffer (§2.1). With the model enabled, every fetch is looked up and
//! misses charge extra cycles; the squash runtime invalidates the cache on
//! every decompression, so the cost of re-fetching buffer code is borne the
//! way real hardware would bear it.

/// Configuration of the instruction-cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ICacheConfig {
    /// Total capacity in bytes (default 64 KB, the 21264's I-cache).
    pub size_bytes: u32,
    /// Line size in bytes (default 64).
    pub line_bytes: u32,
    /// Associativity (default 2-way).
    pub ways: u32,
    /// Extra cycles charged per miss (default 12).
    pub miss_cycles: u64,
}

impl Default for ICacheConfig {
    fn default() -> ICacheConfig {
        ICacheConfig {
            size_bytes: 64 * 1024,
            line_bytes: 64,
            ways: 2,
            miss_cycles: 12,
        }
    }
}

/// Statistics accumulated by the model.
///
/// Counter naming follows the workspace convention shared with
/// `squash::runtime::RuntimeStats`: `hits` / `misses` / `evictions`-style
/// names, no prefixes. `#[non_exhaustive]` so the set (and the derived JSON
/// schema, `DESIGN.md` §12) can grow without breaking consumers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ICacheStats {
    /// Fetches that hit.
    pub hits: u64,
    /// Fetches that missed.
    pub misses: u64,
    /// Whole-cache invalidations (decompressor flushes).
    pub flushes: u64,
}

impl ICacheStats {
    /// Miss ratio over all fetches.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative instruction cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct ICache {
    config: ICacheConfig,
    /// `tags[set * ways + way]`; `u64::MAX` = invalid. Paired LRU stamps.
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    sets: u32,
    stats: ICacheStats,
}

impl ICache {
    /// Creates a cache for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if sizes are not powers of two or the geometry is degenerate.
    pub fn new(config: ICacheConfig) -> ICache {
        assert!(config.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(config.size_bytes.is_power_of_two(), "cache size must be a power of two");
        assert!(config.ways >= 1, "need at least one way");
        let lines = config.size_bytes / config.line_bytes;
        let sets = (lines / config.ways).max(1);
        ICache {
            config,
            tags: vec![u64::MAX; (sets * config.ways) as usize],
            stamps: vec![0; (sets * config.ways) as usize],
            clock: 0,
            sets,
            stats: ICacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> ICacheConfig {
        self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ICacheStats {
        self.stats
    }

    /// Looks up the line containing `pc`; returns the miss penalty in cycles
    /// (0 on a hit), updating LRU state.
    pub fn fetch(&mut self, pc: u32) -> u64 {
        self.clock += 1;
        let line = (pc / self.config.line_bytes) as u64;
        let set = (line % self.sets as u64) as usize;
        let base = set * self.config.ways as usize;
        let ways = self.config.ways as usize;
        // Hit?
        for w in 0..ways {
            if self.tags[base + w] == line {
                self.stamps[base + w] = self.clock;
                self.stats.hits += 1;
                return 0;
            }
        }
        // Miss: replace the LRU way.
        self.stats.misses += 1;
        let mut victim = 0;
        for w in 1..ways {
            if self.stamps[base + w] < self.stamps[base + victim] {
                victim = w;
            }
        }
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        self.config.miss_cycles
    }

    /// Invalidates every line (the decompressor's post-fill flush).
    pub fn flush(&mut self) {
        self.tags.fill(u64::MAX);
        self.stats.flushes += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ICache {
        ICache::new(ICacheConfig {
            size_bytes: 256,
            line_bytes: 64,
            ways: 2,
            miss_cycles: 10,
        })
    }

    #[test]
    fn first_fetch_misses_then_hits() {
        let mut c = tiny();
        assert_eq!(c.fetch(0x1000), 10);
        assert_eq!(c.fetch(0x1000), 0);
        assert_eq!(c.fetch(0x103C), 0, "same 64-byte line");
        assert_eq!(c.fetch(0x1040), 10, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        // 2 sets of 2 ways; lines mapping to set 0: line numbers even.
        let mut c = tiny();
        let a = 0; // line 0, set 0
        let b = 2 * 64; // line 2, set 0
        let d = 4 * 64; // line 4, set 0
        assert_eq!(c.fetch(a), 10);
        assert_eq!(c.fetch(b), 10);
        assert_eq!(c.fetch(a), 0); // refresh a; b becomes LRU
        assert_eq!(c.fetch(d), 10); // evicts b
        assert_eq!(c.fetch(a), 0);
        assert_eq!(c.fetch(b), 10, "b was evicted");
    }

    #[test]
    fn flush_invalidates_everything() {
        let mut c = tiny();
        c.fetch(0x0);
        c.fetch(0x40);
        c.flush();
        assert_eq!(c.fetch(0x0), 10);
        assert_eq!(c.fetch(0x40), 10);
        assert_eq!(c.stats().flushes, 1);
    }

    #[test]
    fn miss_ratio_computation() {
        let mut c = tiny();
        c.fetch(0);
        c.fetch(0);
        c.fetch(0);
        c.fetch(0);
        assert!((c.stats().miss_ratio() - 0.25).abs() < 1e-12);
        assert_eq!(ICacheStats::default().miss_ratio(), 0.0);
        let huge = ICacheStats { hits: u64::MAX, misses: u64::MAX, flushes: 0 };
        assert_eq!(huge.miss_ratio(), 1.0, "saturates instead of overflowing");
    }

    #[test]
    fn default_geometry_is_the_21264() {
        let c = ICache::new(ICacheConfig::default());
        assert_eq!(c.config().size_bytes, 65536);
        assert_eq!(c.sets, 512);
    }
}
