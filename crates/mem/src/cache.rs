//! Set-associative, LRU, non-blocking cache timing model.

/// Geometry and timing of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line_bytes: usize,
    /// Hit latency in cycles (data available `hit_latency` cycles after access).
    pub hit_latency: u32,
    /// Additional cycles a miss takes beyond the hit latency.
    pub miss_latency: u32,
    /// Maximum outstanding misses (MSHRs); further misses to new lines
    /// are serialised behind the oldest outstanding one.
    pub mshrs: usize,
}

impl CacheConfig {
    /// The Table 1 instruction cache: 64 KB, 2-way, 32 B lines, 6-cycle miss.
    pub fn table1_inst() -> CacheConfig {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 1,
            miss_latency: 6,
            mshrs: 8,
        }
    }

    /// The Table 1 data cache: identical geometry, dual-ported (ports are
    /// arbitrated by [`crate::PortArbiter`], not by the cache itself).
    pub fn table1_data() -> CacheConfig {
        CacheConfig::table1_inst()
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.assoc * self.line_bytes)
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was resident (or its miss already outstanding).
    pub hit: bool,
    /// Cycle at which the data is available.
    pub ready_cycle: u64,
}

vpir_stats::counters! {
    /// Hit/miss counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Demand accesses that hit.
        pub hits: u64,
        /// Demand accesses that missed (primary misses).
        pub misses: u64,
        /// Misses that merged into an outstanding MSHR (secondary misses).
        pub mshr_merges: u64,
    }
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.mshr_merges
    }

    /// Miss ratio over all accesses (secondary misses count as misses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.misses + self.mshr_merges) as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    /// Monotonic touch stamp for LRU.
    lru: u64,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line: u64,
    ready_cycle: u64,
}

/// A set-associative, LRU, non-blocking cache (tags + timing only).
///
/// The cache is *stateful in time*: `access` takes the current cycle and
/// returns when the data will be ready. Misses allocate the line
/// immediately (fill timing is folded into `ready_cycle`); accesses to a
/// line with an outstanding miss complete when that miss does.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// All ways in one flat array; set `s` is the contiguous slice
    /// `[s * assoc, (s + 1) * assoc)`.
    ways: Vec<Way>,
    /// `log2(line_bytes)` — the line size is validated a power of two.
    line_shift: u32,
    /// `sets - 1` when the set count is a power of two (the common
    /// geometry), letting `set_of` mask instead of divide; `None` falls
    /// back to modulo.
    set_mask: Option<u64>,
    mshrs: Vec<Mshr>,
    stats: CacheStats,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sizes, non-power-of-two
    /// line size, or a line larger than a way's share of the capacity).
    pub fn new(config: CacheConfig) -> Cache {
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.assoc > 0 && config.mshrs > 0);
        assert!(config.sets() > 0, "capacity must hold at least one set");
        Cache {
            config,
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    lru: 0
                };
                config.sets() * config.assoc
            ],
            line_shift: config.line_bytes.trailing_zeros(),
            set_mask: config
                .sets()
                .is_power_of_two()
                .then(|| config.sets() as u64 - 1),
            mshrs: Vec::new(),
            stats: CacheStats::default(),
            tick: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    fn set_of(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => (line % self.config.sets() as u64) as usize,
        }
    }

    fn set(&self, set: usize) -> &[Way] {
        &self.ways[set * self.config.assoc..][..self.config.assoc]
    }

    fn set_mut(&mut self, set: usize) -> &mut [Way] {
        let assoc = self.config.assoc;
        &mut self.ways[set * assoc..][..assoc]
    }

    /// Accesses `addr` at `now`; returns when the data is ready.
    ///
    /// Writes allocate like reads (write-allocate); dirty-line writeback
    /// bandwidth is not modelled, matching the paper's single-level
    /// hierarchy with a flat 6-cycle miss.
    pub fn access(&mut self, now: u64, addr: u64, is_write: bool) -> AccessOutcome {
        let _ = is_write;
        self.tick += 1;
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let tag = line;
        self.mshrs.retain(|m| m.ready_cycle > now);

        let tick = self.tick;
        if let Some(way) = self
            .set_mut(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == tag)
        {
            way.lru = tick;
            // A hit on a line whose fill is still in flight completes with
            // the fill, not before.
            if let Some(m) = self.mshrs.iter().find(|m| m.line == line) {
                self.stats.mshr_merges += 1;
                return AccessOutcome {
                    hit: true,
                    ready_cycle: m.ready_cycle.max(now + self.config.hit_latency as u64),
                };
            }
            self.stats.hits += 1;
            return AccessOutcome {
                hit: true,
                ready_cycle: now + self.config.hit_latency as u64,
            };
        }

        // Primary miss: allocate MSHR (serialised if all are busy) and fill.
        self.stats.misses += 1;
        let base_ready = now + (self.config.hit_latency + self.config.miss_latency) as u64;
        let ready_cycle = if self.mshrs.len() >= self.config.mshrs {
            let oldest = self
                .mshrs
                .iter()
                .map(|m| m.ready_cycle)
                .min()
                .unwrap_or(now);
            oldest.max(base_ready)
        } else {
            base_ready
        };
        self.mshrs.push(Mshr { line, ready_cycle });

        // The set is non-empty (assoc is validated positive at
        // construction), so a victim always exists; `if let` keeps the
        // miss path panic-free without changing the selection.
        if let Some(victim) =
            self.set_mut(set)
                .iter_mut()
                .min_by_key(|w| if w.valid { w.lru } else { 0 })
        {
            victim.tag = tag;
            victim.valid = true;
            victim.lru = tick;
        }

        AccessOutcome {
            hit: false,
            ready_cycle,
        }
    }

    /// Whether `addr`'s line is currently resident (no state change).
    pub fn probe(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        self.set(set).iter().any(|w| w.valid && w.tag == line)
    }

    /// Invalidates every line and drops outstanding misses.
    pub fn flush(&mut self) {
        for way in &mut self.ways {
            way.valid = false;
        }
        self.mshrs.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 32B = 256B for easy conflict construction.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            line_bytes: 32,
            hit_latency: 1,
            miss_latency: 6,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        let a = c.access(0, 0x100, false);
        assert!(!a.hit);
        assert_eq!(a.ready_cycle, 7);
        let b = c.access(10, 0x10c, false);
        assert!(b.hit);
        assert_eq!(b.ready_cycle, 11);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small();
        // Three lines mapping to the same set (4 sets, 32B lines -> stride 128).
        c.access(0, 0x000, false);
        c.access(10, 0x080, false);
        c.access(20, 0x000, false); // touch first again
        c.access(30, 0x100, false); // evicts 0x080, not 0x000
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn access_during_outstanding_miss_completes_with_fill() {
        let mut c = small();
        let first = c.access(0, 0x200, false);
        let second = c.access(2, 0x208, false); // same line, miss in flight
        assert!(second.hit);
        assert_eq!(second.ready_cycle, first.ready_cycle);
        assert_eq!(c.stats().mshr_merges, 1);
        // After the fill completes, accesses are plain hits again.
        let third = c.access(first.ready_cycle + 1, 0x210, false);
        assert_eq!(third.ready_cycle, first.ready_cycle + 2);
    }

    #[test]
    fn mshr_exhaustion_serialises() {
        let mut c = Cache::new(CacheConfig {
            mshrs: 1,
            ..*small().config()
        });
        let a = c.access(0, 0x000, false);
        let b = c.access(0, 0x400, false); // distinct line, MSHR full
        assert!(b.ready_cycle >= a.ready_cycle);
    }

    #[test]
    fn table1_geometry() {
        let cfg = CacheConfig::table1_data();
        assert_eq!(cfg.sets(), 1024);
        let mut c = Cache::new(cfg);
        // Fill both ways of set 0 and verify no thrash of a 2-line set.
        let stride = (cfg.sets() * cfg.line_bytes) as u64;
        c.access(0, 0, false);
        c.access(1, stride, false);
        assert!(c.probe(0));
        assert!(c.probe(stride));
    }

    #[test]
    fn flush_empties() {
        let mut c = small();
        c.access(0, 0x40, true);
        assert!(c.probe(0x40));
        c.flush();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn miss_ratio() {
        let mut c = small();
        c.access(0, 0x0, false);
        c.access(10, 0x0, false);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        Cache::new(CacheConfig {
            line_bytes: 24,
            ..*small().config()
        });
    }
}
