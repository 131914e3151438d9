//! A freelist of reusable byte buffers for the acquisition pipeline.
//!
//! Converter workers take a buffer, fill it with staged text, and send it
//! downstream; file writers return it after copying into the staging file.
//! Buffers keep their capacity across trips, so after warm-up the convert
//! hot path performs no per-chunk output allocation. The idle list is
//! capped: when the pipeline drains and workers outnumber writers, excess
//! buffers are simply dropped instead of pinning peak memory forever.
//!
//! Recycling is observable: a pool built with
//! [`BufferPool::with_obs`] maintains an idle-buffer gauge and hit/miss
//! counters, so Stats and the Profile report show whether the freelist
//! actually absorbs the steady-state allocation traffic.

use parking_lot::Mutex;

use crate::obs::{Counter, Gauge};

/// Observability handles a pool reports through.
struct PoolHandles {
    idle: Gauge,
    hits: Counter,
    misses: Counter,
}

/// A capped freelist of `Vec<u8>` buffers.
pub struct BufferPool {
    slots: Mutex<Vec<Vec<u8>>>,
    max_idle: usize,
    obs: Option<PoolHandles>,
}

impl BufferPool {
    /// Pool retaining at most `max_idle` idle buffers.
    pub fn new(max_idle: usize) -> BufferPool {
        BufferPool {
            slots: Mutex::new(Vec::with_capacity(max_idle)),
            max_idle,
            obs: None,
        }
    }

    /// Pool reporting its idle depth and recycle hit/miss traffic through
    /// the given handles (`pool.idle_buffers` / `pool.recycle_hits` /
    /// `pool.recycle_misses` on the node hub).
    pub fn with_obs(max_idle: usize, idle: Gauge, hits: Counter, misses: Counter) -> BufferPool {
        BufferPool {
            slots: Mutex::new(Vec::with_capacity(max_idle)),
            max_idle,
            obs: Some(PoolHandles { idle, hits, misses }),
        }
    }

    /// Take a buffer (empty, capacity retained from its previous trip) or
    /// a fresh one if the freelist is dry.
    pub fn take(&self) -> Vec<u8> {
        let popped = {
            let mut slots = self.slots.lock();
            let popped = slots.pop();
            if let Some(obs) = &self.obs {
                obs.idle.set(slots.len() as u64);
            }
            popped
        };
        if let Some(obs) = &self.obs {
            match popped.is_some() {
                true => obs.hits.inc(),
                false => obs.misses.inc(),
            }
        }
        popped.unwrap_or_default()
    }

    /// Return a buffer to the freelist; dropped if the pool is full.
    pub fn put(&self, mut buf: Vec<u8>) {
        buf.clear();
        let mut slots = self.slots.lock();
        if slots.len() < self.max_idle {
            slots.push(buf);
        }
        if let Some(obs) = &self.obs {
            obs.idle.set(slots.len() as u64);
        }
    }

    /// Number of idle buffers currently held.
    pub fn idle(&self) -> usize {
        self.slots.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_with_capacity() {
        let pool = BufferPool::new(2);
        let mut a = pool.take();
        a.extend_from_slice(&[1, 2, 3, 4]);
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), cap);
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn idle_cap_enforced() {
        let pool = BufferPool::new(1);
        pool.put(Vec::with_capacity(8));
        pool.put(Vec::with_capacity(8));
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn observed_pool_counts_hits_misses_and_idle() {
        let reg = crate::obs::MetricsRegistry::new();
        let (idle, hits, misses) = (
            reg.gauge("pool.idle_buffers"),
            reg.counter("pool.recycle_hits"),
            reg.counter("pool.recycle_misses"),
        );
        let pool = BufferPool::with_obs(2, idle.clone(), hits.clone(), misses.clone());
        let a = pool.take(); // dry → miss
        pool.put(a);
        let b = pool.take(); // recycled → hit
        pool.put(b);
        pool.put(Vec::new());
        assert_eq!(misses.value(), 1);
        assert_eq!(hits.value(), 1);
        assert_eq!(idle.value(), 2, "gauge tracks the freelist depth");
        assert_eq!(pool.idle(), 2);
    }
}
