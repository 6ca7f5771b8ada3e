//! The content-hash LRU circuit cache.
//!
//! SymPhase front-loads all the expensive work into symbolic
//! initialization; after that, sampling is a cheap F₂ product. The cache
//! exploits that asymmetry: a circuit is parsed and each engine's sampler
//! is built **once**, keyed by the canonical content hash
//! ([`crate::hash::circuit_hash`]), and every later request for the same
//! (circuit, engine) pair reuses the initialized `Arc<dyn Sampler>` —
//! workers sample from it concurrently without re-initialization.
//!
//! Eviction is LRU at circuit granularity: one entry holds the parsed
//! circuit plus up to one sampler per engine, and the least recently
//! *used* entry (any engine) is evicted when the capacity is exceeded.
//! Hit/miss counters are exposed for the stats frame and are pinned by
//! the warm-cache e2e tests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use symphase_backend::{EngineKind, Sampler};
use symphase_circuit::Circuit;

use crate::hash::CircuitHash;

/// Why [`CircuitCache::get_or_build`] failed.
#[derive(Debug)]
pub enum CacheError<E> {
    /// A by-hash request named a circuit that is not (or no longer) cached.
    UnknownHash,
    /// The caller's build closure failed (parse passed, construction
    /// didn't) — carries the caller's error.
    Build(E),
}

/// The once-slot of one (circuit, engine) pair. A request builds the
/// sampler while holding the slot's own lock, so requests for the same
/// pair wait for that one build and requests for anything else do not.
type Slot = Mutex<Option<Arc<dyn Sampler>>>;

/// Locks `mutex`, recovering it if a build panicked while holding it:
/// a slot is only written after its build returns, and the map is never
/// locked during a build, so both stay consistent.
fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `true` when `slot` holds no sampler and no request is building one.
fn is_unbuilt(slot: &Slot) -> bool {
    match slot.try_lock() {
        Ok(sampler) => sampler.is_none(),
        Err(TryLockError::Poisoned(sampler)) => sampler.into_inner().is_none(),
        Err(TryLockError::WouldBlock) => false,
    }
}

struct Entry {
    circuit: Arc<Circuit>,
    /// One slot per [`EngineKind::ALL`] position; built on first use.
    slots: [Arc<Slot>; EngineKind::ALL.len()],
    /// LRU clock value of the last touch.
    last_used: u64,
}

struct Inner {
    map: HashMap<CircuitHash, Entry>,
    clock: u64,
}

/// A bounded, thread-safe circuit → sampler cache (see module docs).
pub struct CircuitCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Drops an entry that a failed or panicking build created, once none
/// of its slots holds or is building a sampler: a failed build caches
/// nothing.
struct UnbuiltEntry<'a> {
    cache: &'a CircuitCache,
    hash: CircuitHash,
    slot: &'a Arc<Slot>,
    armed: bool,
}

impl Drop for UnbuiltEntry<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut inner = self.cache.lock();
        let unbuilt = inner.map.get(&self.hash).is_some_and(|entry| {
            entry.slots.iter().any(|s| Arc::ptr_eq(s, self.slot))
                && entry.slots.iter().all(|s| is_unbuilt(s))
        });
        if unbuilt {
            inner.map.remove(&self.hash);
        }
    }
}

impl CircuitCache {
    /// A cache holding at most `capacity` circuits (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Requests that found their (circuit, engine) sampler already built.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Requests that had to build (and cache) a sampler.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Circuits currently cached.
    pub fn entries(&self) -> u64 {
        self.lock().map.len() as u64
    }

    /// The map lock; held to look up, insert or evict entries, never
    /// during a build.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        lock(&self.inner)
    }

    /// The slot and circuit of `(hash, engine)`, touching the entry's LRU
    /// clock, or of a new entry made from `circuit` (evicting the least
    /// recently used one past capacity); the flag marks a new entry.
    fn slot(
        &self,
        hash: CircuitHash,
        circuit: Option<Circuit>,
        index: usize,
    ) -> Option<(Arc<Slot>, Arc<Circuit>, bool)> {
        let mut inner = self.lock();
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(entry) = inner.map.get_mut(&hash) {
            entry.last_used = clock;
            let slot = Arc::clone(&entry.slots[index]);
            return Some((slot, Arc::clone(&entry.circuit), false));
        }
        let entry = Entry {
            circuit: Arc::new(circuit?),
            slots: std::array::from_fn(|_| Arc::default()),
            last_used: clock,
        };
        let found = (
            Arc::clone(&entry.slots[index]),
            Arc::clone(&entry.circuit),
            true,
        );
        inner.map.insert(hash, entry);
        if inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(h, _)| *h)
                .expect("cache over capacity implies nonempty");
            inner.map.remove(&victim);
        }
        Some(found)
    }

    /// The sampler for `(hash, engine)`, building and caching it on miss.
    ///
    /// * `circuit` supplies the parsed circuit when the caller has one (a
    ///   by-text request); `None` means the caller only knows the hash,
    ///   and a missing entry is [`CacheError::UnknownHash`].
    /// * `build` runs in the pair's once-slot, outside the cache lock:
    ///   concurrent requests for the same pair wait for that one build
    ///   (and count as hits), while requests for other circuits or
    ///   engines never wait for it. A failed or panicking build leaves the
    ///   slot empty, so the next request builds again.
    ///
    /// Returns the sampler and whether it was a cache **hit** (sampler
    /// already initialized).
    pub fn get_or_build<E>(
        &self,
        hash: CircuitHash,
        circuit: Option<Circuit>,
        engine: EngineKind,
        build: impl FnOnce(&Circuit) -> Result<Box<dyn Sampler>, E>,
    ) -> Result<(Arc<dyn Sampler>, bool), CacheError<E>> {
        let index = EngineKind::ALL
            .iter()
            .position(|k| *k == engine)
            .expect("EngineKind::ALL is complete");
        let (slot, circuit, created) = self
            .slot(hash, circuit, index)
            .ok_or(CacheError::UnknownHash)?;
        // Declared before the slot lock, so it runs after the lock is
        // released when the build fails or panics.
        let mut unbuilt = UnbuiltEntry {
            cache: self,
            hash,
            slot: &slot,
            armed: created,
        };
        let mut cached = lock(&slot);
        if let Some(sampler) = &*cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(sampler), true));
        }
        let sampler: Arc<dyn Sampler> = Arc::from(build(&circuit).map_err(CacheError::Build)?);
        *cached = Some(Arc::clone(&sampler));
        unbuilt.armed = false;
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok((sampler, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::circuit_hash;
    use symphase_backend::SampleBatch;

    struct NullSampler;
    impl Sampler for NullSampler {
        fn name(&self) -> &'static str {
            "null"
        }
        fn num_measurements(&self) -> usize {
            0
        }
        fn num_detectors(&self) -> usize {
            0
        }
        fn num_observables(&self) -> usize {
            0
        }
        fn sample_into(&self, _batch: &mut SampleBatch, _rng: &mut dyn rand::RngCore) {}
    }

    fn circ(text: &str) -> (CircuitHash, Circuit) {
        let c = Circuit::parse(text).expect("parse");
        (circuit_hash(&c), c)
    }

    fn build_ok(_c: &Circuit) -> Result<Box<dyn Sampler>, String> {
        Ok(Box::new(NullSampler))
    }

    #[test]
    fn second_request_hits_and_counters_track() {
        let cache = CircuitCache::new(4);
        let (h, c) = circ("H 0\nM 0\n");
        let (_, hit) = cache
            .get_or_build(h, Some(c.clone()), EngineKind::Frame, build_ok)
            .expect("build");
        assert!(!hit);
        // Same engine: hit. Different engine on the same circuit: a miss
        // that builds into the existing entry — by hash only, no text.
        let (_, hit) = cache
            .get_or_build::<String>(h, None, EngineKind::Frame, |_| {
                panic!("must not rebuild on hit")
            })
            .expect("hit");
        assert!(hit);
        let (_, hit) = cache
            .get_or_build(h, None, EngineKind::Tableau, build_ok)
            .expect("build");
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 2, 1));
    }

    #[test]
    fn unknown_hash_is_typed_and_counts_nothing() {
        let cache = CircuitCache::new(4);
        let (h, _) = circ("H 0\nM 0\n");
        match cache.get_or_build(h, None, EngineKind::Frame, build_ok) {
            Err(CacheError::UnknownHash) => {}
            other => panic!("want UnknownHash, got {:?}", other.map(|(_, hit)| hit)),
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn build_failure_is_not_cached() {
        let cache = CircuitCache::new(4);
        let (h, c) = circ("H 0\nM 0\n");
        let r = cache.get_or_build(h, Some(c.clone()), EngineKind::Frame, |_| {
            Err::<Box<dyn Sampler>, _>("too big".to_string())
        });
        assert!(matches!(r, Err(CacheError::Build(ref m)) if m == "too big"));
        assert_eq!(cache.entries(), 0);
        // A later good build still works.
        let (_, hit) = cache
            .get_or_build(h, Some(c), EngineKind::Frame, build_ok)
            .expect("build");
        assert!(!hit);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_circuit() {
        let cache = CircuitCache::new(2);
        let (ha, ca) = circ("H 0\nM 0\n");
        let (hb, cb) = circ("H 1\nM 1\n");
        let (hc, cc) = circ("H 2\nM 2\n");
        cache
            .get_or_build(ha, Some(ca), EngineKind::Frame, build_ok)
            .expect("a");
        cache
            .get_or_build(hb, Some(cb), EngineKind::Frame, build_ok)
            .expect("b");
        // Touch A so B becomes the LRU victim when C arrives.
        cache
            .get_or_build(ha, None, EngineKind::Frame, build_ok)
            .expect("a again");
        cache
            .get_or_build(hc, Some(cc), EngineKind::Frame, build_ok)
            .expect("c");
        assert_eq!(cache.entries(), 2);
        assert!(matches!(
            cache.get_or_build(hb, None, EngineKind::Frame, build_ok),
            Err(CacheError::UnknownHash)
        ));
        let (_, hit) = cache
            .get_or_build(ha, None, EngineKind::Frame, build_ok)
            .expect("a cached");
        assert!(hit, "A must have survived eviction");
    }

    #[test]
    fn a_panicking_build_does_not_poison_the_cache() {
        let cache = CircuitCache::new(4);
        let (ha, ca) = circ("H 0\nM 0\n");
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_build::<String>(ha, Some(ca), EngineKind::Frame, |_| {
                panic!("engine panicked")
            });
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.entries(), 0);
        let (hb, cb) = circ("H 1\nM 1\n");
        let (_, hit) = cache
            .get_or_build(hb, Some(cb), EngineKind::Frame, build_ok)
            .expect("build after a panic");
        assert!(!hit);
        let (_, hit) = cache
            .get_or_build(hb, None, EngineKind::Frame, build_ok)
            .expect("hit after a panic");
        assert!(hit);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 1, 1));
    }
    #[test]
    fn a_slow_build_does_not_delay_a_warm_hit_on_another_circuit() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = &CircuitCache::new(4);
        let (ha, ca) = circ("H 0\nM 0\n");
        let (hb, cb) = circ("H 1\nM 1\n");
        cache
            .get_or_build(hb, Some(cb), EngineKind::Frame, build_ok)
            .expect("warm B");
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let slow = scope.spawn(move || {
                cache.get_or_build(ha, Some(ca), EngineKind::Frame, move |_| {
                    started_tx.send(()).expect("test alive");
                    release_rx.recv().expect("released");
                    build_ok(&Circuit::new(1))
                })
            });
            started_rx.recv().expect("A's build started");
            let (warm_tx, warm_rx) = mpsc::channel();
            scope.spawn(move || {
                let hit = cache
                    .get_or_build(hb, None, EngineKind::Frame, build_ok)
                    .map(|(_, hit)| hit);
                warm_tx.send(hit.is_ok_and(|hit| hit)).expect("test alive");
            });
            // Wait generously, then release A whatever happened, so a
            // failure reports instead of hanging.
            let warm = warm_rx.recv_timeout(Duration::from_secs(20));
            release_tx.send(()).expect("A still building");
            assert_eq!(warm, Ok(true), "the warm hit on B waited for A's build");
            let (_, hit) = slow.join().expect("A's build").expect("A built");
            assert!(!hit);
        });
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (1, 2, 2));
    }

    #[test]
    fn concurrent_requests_for_one_pair_build_it_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc;
        let cache = &CircuitCache::new(4);
        let (h, c) = circ("H 0\nM 0\n");
        let builds = &AtomicUsize::new(0);
        let build = |c: &Circuit| {
            builds.fetch_add(1, Ordering::SeqCst);
            build_ok(c)
        };
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                cache.get_or_build(h, Some(c.clone()), EngineKind::Frame, move |c| {
                    started_tx.send(()).expect("test alive");
                    release_rx.recv().expect("released");
                    build(c)
                })
            });
            // The slot is building before the other requests arrive: each
            // either waits for that build or finds it done.
            started_rx.recv().expect("the first build started");
            let others: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| cache.get_or_build(h, Some(c.clone()), EngineKind::Frame, build))
                })
                .collect();
            release_tx.send(()).expect("the first build waits");
            assert!(!first.join().expect("first").expect("built").1);
            for other in others {
                assert!(other.join().expect("other").expect("hit").1);
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!((cache.hits(), cache.misses(), cache.entries()), (3, 1, 1));
    }
}
