//! PEDAL's memory pool (paper §III-C): "PEDAL prearranges all essential
//! buffers through a memory pool ... to reuse intermediate buffers, and
//! eliminate the frequent need for memory allocation, deallocation, and
//! mapping between regular and DOCA-operable memory during each compression
//! and decompression execution."
//!
//! This pool manages plain SoC-side buffers; DOCA-operable buffers live in
//! [`pedal_doca::BufInventory`]. Both charge virtual costs from the same
//! model so the ablation harness can compare pooled vs unpooled designs.

use pedal_dpu::{CostModel, SimDuration};
use std::sync::Mutex;

/// Consistent snapshot of the pool's accounting counters.
///
/// Hits, misses, and accumulated acquire cost are updated under one lock so
/// a reader never observes a hit counted whose cost has not landed yet
/// (which the previous two-atomics-plus-mutex layout allowed under
/// concurrent acquire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    /// Total virtual time spent acquiring buffers (hit + miss costs).
    pub acquire_cost: SimDuration,
}

#[derive(Debug, Default)]
struct PoolState {
    free: Vec<Vec<u8>>,
    stats: PoolStats,
}

/// A recycling pool of host byte buffers.
#[derive(Debug)]
pub struct PedalPool {
    costs: CostModel,
    state: Mutex<PoolState>,
}

impl PedalPool {
    pub fn new(costs: CostModel) -> Self {
        Self { costs, state: Mutex::new(PoolState::default()) }
    }

    /// Preallocate `count` buffers of `capacity` bytes; returns the virtual
    /// cost paid (this happens inside PEDAL_Init).
    pub fn preallocate(&self, count: usize, capacity: usize) -> SimDuration {
        let mut state = self.state.lock().unwrap();
        let mut total = SimDuration::ZERO;
        for _ in 0..count {
            state.free.push(Vec::with_capacity(capacity));
            total += self.costs.host_alloc(capacity, 1);
        }
        total
    }

    /// Acquire a buffer with at least `capacity`. Returns (buffer, cost).
    pub fn acquire(&self, capacity: usize) -> (Vec<u8>, SimDuration) {
        let mut state = self.state.lock().unwrap();
        if let Some(pos) = state.free.iter().position(|b| b.capacity() >= capacity) {
            let mut buf = state.free.swap_remove(pos);
            buf.clear();
            let cost = self.costs.pool_hit();
            state.stats.hits += 1;
            state.stats.acquire_cost += cost;
            return (buf, cost);
        }
        let cost = self.costs.host_alloc(capacity, 1);
        state.stats.misses += 1;
        state.stats.acquire_cost += cost;
        drop(state); // allocate outside the lock
        (Vec::with_capacity(capacity), cost)
    }

    /// Return a buffer for reuse.
    pub fn release(&self, buf: Vec<u8>) {
        self.state.lock().unwrap().free.push(buf);
    }

    /// Atomically consistent snapshot of hits/misses/cost.
    pub fn stats(&self) -> PoolStats {
        self.state.lock().unwrap().stats
    }

    pub fn hits(&self) -> u64 {
        self.stats().hits
    }

    pub fn misses(&self) -> u64 {
        self.stats().misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pedal_dpu::Platform;

    fn pool() -> PedalPool {
        PedalPool::new(CostModel::for_platform(Platform::BlueField2))
    }

    #[test]
    fn hit_is_cheaper_than_miss() {
        let p = pool();
        let (buf, miss_cost) = p.acquire(1_000_000);
        p.release(buf);
        let (_buf, hit_cost) = p.acquire(1_000_000);
        assert_eq!(p.hits(), 1);
        assert_eq!(p.misses(), 1);
        assert!(hit_cost.as_nanos() * 10 < miss_cost.as_nanos());
    }

    #[test]
    fn preallocation_prevents_misses() {
        let p = pool();
        p.preallocate(3, 2_000_000);
        for _ in 0..50 {
            let (a, _) = p.acquire(1_000_000);
            let (b, _) = p.acquire(2_000_000);
            p.release(a);
            p.release(b);
        }
        assert_eq!(p.misses(), 0);
        assert_eq!(p.hits(), 100);
    }

    #[test]
    fn capacity_respected() {
        let p = pool();
        p.preallocate(1, 100);
        let (big, _) = p.acquire(10_000);
        assert!(big.capacity() >= 10_000);
        assert_eq!(p.misses(), 1, "small pooled buffer must not satisfy big request");
    }

    #[test]
    fn concurrent_acquire_release() {
        let p = std::sync::Arc::new(pool());
        p.preallocate(8, 64 * 1024);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = p.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let (buf, _) = p.acquire(32 * 1024);
                    p.release(buf);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(p.hits() + p.misses(), 1600);
    }

    #[test]
    fn concurrent_stats_snapshots_stay_consistent() {
        // Every snapshot taken while 8 threads hammer acquire/release must
        // satisfy acquire_cost == hits * pool_hit + misses * host_alloc —
        // the invariant the old split-lock accounting could violate.
        let p = std::sync::Arc::new(pool());
        p.preallocate(8, 64 * 1024);
        let hit = p.costs.pool_hit();
        let miss = p.costs.host_alloc(32 * 1024, 1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = &p;
                s.spawn(move || {
                    for _ in 0..500 {
                        let (buf, _) = p.acquire(32 * 1024);
                        p.release(buf);
                    }
                });
            }
            for _ in 0..2000 {
                let snap = p.stats();
                let expect = hit * snap.hits + miss * snap.misses;
                assert_eq!(
                    snap.acquire_cost, expect,
                    "skewed snapshot: {snap:?} (hit={hit:?}, miss={miss:?})"
                );
            }
        });
        assert_eq!(p.hits() + p.misses(), 4000);
    }
}
