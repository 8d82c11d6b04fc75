//! Content-addressed result cache with self-verifying entries.
//!
//! Keys are a pure function of `(canonical kernel source, transform
//! config, sim config)` — the three inputs that determine a deterministic
//! simulation's report — so identical requests hash identically across
//! reruns and processes, and any semantic change to a request moves it to
//! a different key (the property suite proves both directions).
//!
//! Every entry stores a checksum of its payload taken at insert time. A
//! lookup re-hashes the stored bytes first: a corrupted entry (chaos mode
//! flips bytes on purpose; a real deployment fears partial writes and
//! bit rot) is *detected, evicted, and reported as a miss*, so the caller
//! transparently recomputes instead of serving garbage.

use std::collections::HashMap;

/// 64-bit FNV-1a. Stable across platforms and runs — cache keys and
/// checksums must never depend on the process (unlike `DefaultHasher`,
/// which is seeded per process). Re-exported from the shared `np-obs`
/// home so the stack has exactly one FNV.
pub use np_obs::fnv::fnv64;

/// A content address. The three components are hashed with an explicit
/// field tag and a length prefix each, so no concatenation of one field
/// can masquerade as another (`"ab" + "c"` vs `"a" + "bc"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey(pub u64);

pub fn cache_key(kernel_canon: &str, transform_config: &str, sim_config: &str) -> CacheKey {
    let mut buf = Vec::with_capacity(kernel_canon.len() + 64);
    for (tag, field) in
        [(b'K', kernel_canon), (b'T', transform_config), (b'S', sim_config)]
    {
        buf.push(tag);
        buf.extend_from_slice(&(field.len() as u64).to_le_bytes());
        buf.extend_from_slice(field.as_bytes());
    }
    CacheKey(fnv64(&buf))
}

struct Entry {
    payload: Vec<u8>,
    /// `fnv64` of `payload` at insert time.
    checksum: u64,
    hits: u64,
}

/// What one lookup found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// Verified entry; the payload is byte-identical to what was inserted.
    Hit(Vec<u8>),
    Miss,
    /// The entry's bytes no longer match its checksum: it has been evicted
    /// and the caller must recompute (and re-insert).
    CorruptEvicted,
}

/// Bounded in-memory content-addressed cache. FIFO eviction — serve-mode
/// entries are all roughly the same cost to recompute, so recency
/// machinery would buy little over the bound itself.
pub struct Cache {
    map: HashMap<u64, Entry>,
    /// Insertion order for FIFO eviction.
    order: Vec<u64>,
    capacity: usize,
    hits: u64,
    misses: u64,
    corrupt_evicted: u64,
}

impl Cache {
    pub fn new(capacity: usize) -> Self {
        Cache {
            map: HashMap::new(),
            order: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            corrupt_evicted: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counters: (verified hits, misses, corrupt evictions).
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.corrupt_evicted)
    }

    /// Look `key` up, verifying the entry's checksum before serving it.
    pub fn lookup(&mut self, key: CacheKey) -> Lookup {
        match self.map.get_mut(&key.0) {
            None => {
                self.misses += 1;
                Lookup::Miss
            }
            Some(e) if fnv64(&e.payload) == e.checksum => {
                e.hits += 1;
                self.hits += 1;
                Lookup::Hit(e.payload.clone())
            }
            Some(_) => {
                self.map.remove(&key.0);
                self.order.retain(|k| *k != key.0);
                self.corrupt_evicted += 1;
                self.misses += 1;
                Lookup::CorruptEvicted
            }
        }
    }

    /// Insert (or replace) the payload for `key`, evicting FIFO when full.
    pub fn insert(&mut self, key: CacheKey, payload: Vec<u8>) {
        if self.map.contains_key(&key.0) {
            self.order.retain(|k| *k != key.0);
        } else if self.map.len() >= self.capacity {
            let oldest = self.order.remove(0);
            self.map.remove(&oldest);
        }
        let checksum = fnv64(&payload);
        self.map.insert(key.0, Entry { payload, checksum, hits: 0 });
        self.order.push(key.0);
    }

    /// Drop `key`'s entry (used when a payload passes the cache checksum
    /// but fails a caller-side integrity check, e.g. a capture artifact
    /// whose codec digest does not verify). Counted as a corrupt eviction.
    pub fn evict(&mut self, key: CacheKey) {
        if self.map.remove(&key.0).is_some() {
            self.order.retain(|k| *k != key.0);
            self.corrupt_evicted += 1;
        }
    }

    /// Chaos/test hook: XOR one byte of a stored payload *without* fixing
    /// its checksum, exactly what bit rot or a torn write would do. `nth`
    /// picks among current entries (insertion order); returns the key it
    /// hit, or `None` when the cache is empty.
    pub fn corrupt_nth(&mut self, nth: usize, byte_xor: u8) -> Option<CacheKey> {
        if self.order.is_empty() {
            return None;
        }
        let key = self.order[nth % self.order.len()];
        let e = self.map.get_mut(&key).expect("order tracks map");
        if e.payload.is_empty() {
            return None;
        }
        let pos = nth % e.payload.len();
        e.payload[pos] ^= byte_xor;
        Some(CacheKey(key))
    }

    /// The shutdown-flushed index: every key with its checksum, payload
    /// size, and hit count, sorted by key so the document is deterministic
    /// for a given cache state.
    pub fn index_json(&self) -> String {
        let mut keys: Vec<u64> = self.map.keys().copied().collect();
        keys.sort_unstable();
        let mut s = format!(
            "{{\"schema\":\"np-serve-cache-index-v1\",\"entries\":{},\
             \"hits\":{},\"misses\":{},\"corrupt_evicted\":{},\"index\":[",
            self.map.len(),
            self.hits,
            self.misses,
            self.corrupt_evicted
        );
        for (i, k) in keys.iter().enumerate() {
            let e = &self.map[k];
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"key\":\"{k:016x}\",\"checksum\":\"{:016x}\",\"bytes\":{},\"hits\":{}}}",
                e.checksum,
                e.payload.len(),
                e.hits
            ));
        }
        s.push_str("]}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_and_field_tagged() {
        let k = cache_key("kern", "tcfg", "scfg");
        assert_eq!(k, cache_key("kern", "tcfg", "scfg"), "pure function of inputs");
        // Moving bytes across field boundaries must change the key.
        assert_ne!(cache_key("ab", "c", "d"), cache_key("a", "bc", "d"));
        assert_ne!(cache_key("a", "bc", "d"), cache_key("a", "b", "cd"));
        assert_ne!(cache_key("", "x", ""), cache_key("x", "", ""));
    }

    #[test]
    fn hit_returns_inserted_bytes_exactly() {
        let mut c = Cache::new(8);
        let k = cache_key("k", "t", "s");
        assert_eq!(c.lookup(k), Lookup::Miss);
        c.insert(k, b"{\"cycles\":42}".to_vec());
        assert_eq!(c.lookup(k), Lookup::Hit(b"{\"cycles\":42}".to_vec()));
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn corruption_is_detected_evicted_and_recomputable() {
        let mut c = Cache::new(8);
        let k = cache_key("k", "t", "s");
        c.insert(k, b"{\"cycles\":42}".to_vec());
        assert!(c.corrupt_nth(0, 0x41).is_some());
        assert_eq!(c.lookup(k), Lookup::CorruptEvicted, "bad bytes must never be served");
        assert_eq!(c.len(), 0, "the corrupt entry is gone");
        // Recompute path: a fresh insert serves verified again.
        c.insert(k, b"{\"cycles\":42}".to_vec());
        assert_eq!(c.lookup(k), Lookup::Hit(b"{\"cycles\":42}".to_vec()));
        let (_, _, corrupt) = c.stats();
        assert_eq!(corrupt, 1);
    }

    #[test]
    fn fifo_eviction_bounds_the_cache() {
        let mut c = Cache::new(2);
        let keys: Vec<CacheKey> =
            (0..3).map(|i| cache_key(&format!("k{i}"), "t", "s")).collect();
        for (i, k) in keys.iter().enumerate() {
            c.insert(*k, format!("p{i}").into_bytes());
        }
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(keys[0]), Lookup::Miss, "oldest entry evicted first");
        assert_eq!(c.lookup(keys[2]), Lookup::Hit(b"p2".to_vec()));
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = Cache::new(2);
        let k = cache_key("k", "t", "s");
        c.insert(k, b"v1".to_vec());
        c.insert(k, b"v2".to_vec());
        assert_eq!(c.len(), 1);
        assert_eq!(c.lookup(k), Lookup::Hit(b"v2".to_vec()));
    }

    #[test]
    fn index_json_is_deterministic_and_lists_entries() {
        let mut c = Cache::new(8);
        c.insert(cache_key("a", "t", "s"), b"pay-a".to_vec());
        c.insert(cache_key("b", "t", "s"), b"pay-b".to_vec());
        let a = c.index_json();
        assert_eq!(a, c.index_json());
        assert!(a.contains("\"entries\":2"), "{a}");
        assert!(a.contains("np-serve-cache-index-v1"), "{a}");
        assert_eq!(a.matches("\"key\":").count(), 2);
    }
}
