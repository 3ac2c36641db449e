//! A memcached-like thread-safe store for the pause-time experiment
//! (Figure 12).
//!
//! Values live behind Alaska handles in a shared [`Runtime`]; the key space is
//! split across shards, each protected by its own lock (memcached's item-lock
//! design).  Worker threads issue closed-loop requests; a control thread
//! periodically stops the world and relocates ~1 MiB of objects, and the
//! workers' request latencies reveal the cost of those pauses.

use alaska_runtime::Runtime;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

#[derive(Debug, Clone, Copy)]
struct Item {
    token: u64,
    len: usize,
}

/// A sharded, thread-safe, handle-backed key-value store.
pub struct ShardedStore {
    rt: Arc<Runtime>,
    shards: Vec<Shard>,
}

/// One lock shard, padded to its own cache lines: packed, neighbouring shards'
/// lock words share a line and every lock/unlock on one core evicts it from
/// the other, which costs two threads more than the shard locks save them.
#[repr(align(128))]
#[derive(Default)]
struct Shard(Mutex<HashMap<u64, Item>>);

impl ShardedStore {
    /// Create a store with `shards` lock shards over the given runtime.
    pub fn new(rt: Arc<Runtime>, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedStore { rt, shards: (0..shards).map(|_| Shard::default()).collect() }
    }

    /// The underlying runtime (shared with the pause controller).
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, Item>> {
        let idx = (key as usize).wrapping_mul(0x9E37_79B9) % self.shards.len();
        &self.shards[idx].0
    }

    /// Store `value` under `key`.
    ///
    /// An overwrite with a same-length value updates the existing allocation
    /// in place (memcached's hot path for counter-style workloads) — no
    /// `halloc`/`hfree` round-trip, just a translation and a copy.
    pub fn set(&self, key: u64, value: &[u8]) {
        {
            let shard = self.shard(key).lock();
            if let Some(item) = shard.get(&key) {
                if item.len == value.len() {
                    // Write under the shard lock so a racing same-key set
                    // cannot free the token out from under us.
                    self.rt.write_bytes(item.token, 0, value);
                    drop(shard);
                    self.rt.safepoint();
                    return;
                }
            }
        }
        // Allocate and fill the new value outside the shard lock.
        let token = self.rt.halloc(value.len().max(1)).expect("halloc failed");
        self.rt.write_bytes(token, 0, value);
        let old = {
            let mut shard = self.shard(key).lock();
            shard.insert(key, Item { token, len: value.len() })
        };
        if let Some(old) = old {
            self.rt.hfree(old.token).expect("hfree failed");
        }
        // Cooperative safepoint so barriers never wait on a busy worker.
        self.rt.safepoint();
    }

    /// Fetch the value under `key`.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let out = {
            let shard = self.shard(key).lock();
            let item = shard.get(&key)?;
            // Read under the shard lock (as the in-place `set` writes under
            // it): a racing resizing `set` of this key frees the token only
            // after it has replaced the item, which it cannot do before we
            // let go.
            let mut out = vec![0u8; item.len];
            self.rt.read_bytes(item.token, 0, &mut out);
            out
        };
        self.rt.safepoint();
        Some(out)
    }

    /// Delete `key`, returning whether it existed.
    pub fn delete(&self, key: u64) -> bool {
        let item = {
            let mut shard = self.shard(key).lock();
            shard.remove(&key)
        };
        match item {
            Some(i) => {
                self.rt.hfree(i.token).expect("hfree failed");
                true
            }
            None => false,
        }
    }

    /// Number of live keys across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.0.lock().len()).sum()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alaska_anchorage::AnchorageService;
    use alaska_heap::vmem::VirtualMemory;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn store(shards: usize) -> ShardedStore {
        let vm = VirtualMemory::default();
        let rt = Arc::new(Runtime::with_vm(vm.clone(), Box::new(AnchorageService::new(vm))));
        ShardedStore::new(rt, shards)
    }

    #[test]
    fn single_threaded_set_get_delete() {
        let s = store(4);
        s.set(1, b"hello");
        s.set(2, b"world");
        assert_eq!(s.get(1).as_deref(), Some(&b"hello"[..]));
        assert_eq!(s.get(2).as_deref(), Some(&b"world"[..]));
        assert_eq!(s.get(3), None);
        assert!(s.delete(1));
        assert!(!s.delete(1));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn overwrite_frees_the_old_value() {
        let s = store(2);
        s.set(9, &[1u8; 100]);
        s.set(9, &[2u8; 50]);
        assert_eq!(s.get(9).unwrap(), vec![2u8; 50]);
        assert_eq!(s.runtime().live_handles(), 1);
    }

    #[test]
    fn same_length_overwrite_updates_in_place() {
        let s = store(2);
        s.set(5, &[7u8; 64]);
        let before = s.runtime().stats();
        s.set(5, &[8u8; 64]);
        assert_eq!(s.get(5).unwrap(), vec![8u8; 64]);
        let delta = s.runtime().stats().since(&before);
        assert_eq!(delta.hallocs, 0, "same-length overwrite must not allocate");
        assert_eq!(delta.hfrees, 0);
        assert_eq!(s.runtime().live_handles(), 1);
    }

    #[test]
    fn concurrent_workers_with_periodic_defrag_barriers() {
        let s = Arc::new(store(8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        for t in 0..4u64 {
            let s = s.clone();
            let stop = stop.clone();
            workers.push(std::thread::spawn(move || {
                let _guard = s.runtime().register_current_thread();
                let mut ops = 0u64;
                let mut k = t * 10_000;
                while !stop.load(Ordering::Relaxed) {
                    s.set(k, &[k as u8; 128]);
                    assert_eq!(s.get(k).unwrap()[0], k as u8);
                    k += 1;
                    ops += 1;
                }
                ops
            }));
        }
        // Fire several defragmentation barriers while the workers run.
        for _ in 0..10 {
            std::thread::sleep(std::time::Duration::from_millis(3));
            s.runtime().defragment(Some(1 << 20));
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = workers.into_iter().map(|w| w.join().unwrap()).sum();
        assert!(total > 0);
        assert!(s.runtime().stats().barriers >= 10);
        assert_eq!(s.len() as u64, total, "every inserted key is distinct and live");
    }

    /// `get` used to copy the item out, drop the shard lock and then read the
    /// token, so a resizing `set` of the same key could free the backing
    /// memory in between and the read panicked with `UseAfterFree`.
    #[test]
    fn get_racing_a_resizing_set_of_the_same_key_sees_whole_values() {
        const ROUNDS: usize = 100_000;
        let s = store(4);
        let (short, long) = (vec![0xAAu8; 48], vec![0xBBu8; 200]);
        s.set(7, &short);
        let start = std::sync::Barrier::new(2);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = s.runtime().register_current_thread();
                start.wait();
                for i in 0..ROUNDS {
                    s.set(7, if i % 2 == 0 { &long } else { &short });
                }
                done.store(true, Ordering::Release);
            });
            let _guard = s.runtime().register_current_thread();
            start.wait();
            let mut gets = 0;
            while gets < ROUNDS || !done.load(Ordering::Acquire) {
                let value = s.get(7).expect("the key is never deleted");
                assert!(value == short || value == long, "torn value of {} bytes", value.len());
                gets += 1;
            }
        });
        assert_eq!(s.runtime().live_handles(), 1);
    }
}
