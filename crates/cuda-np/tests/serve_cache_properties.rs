//! Property tests for the serve result cache: the key is a *pure* function
//! of `(kernel canon, transform config, sim config)` — equal inputs always
//! collide, any single-field change separates, and field boundaries cannot
//! be confused (the key hashes each field with a tag and length prefix).
//! Plus the corruption property: flip any byte of a stored payload and the
//! next lookup must detect it, evict, and report a miss — never serve it.

use cuda_np::serve::cache::{cache_key, fnv64, Cache, Lookup};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Purity: the key depends only on the three field values.
    #[test]
    fn cache_key_is_pure(
        kernel in "[a-z{}()+;= ]{0,40}",
        tcfg in "[a-z0-9=;]{0,20}",
        scfg in "[a-z0-9=;]{0,20}",
    ) {
        prop_assert_eq!(
            cache_key(&kernel, &tcfg, &scfg),
            cache_key(&kernel, &tcfg, &scfg)
        );
        // Key bits actually come from the content, not object identity:
        // fresh allocations of equal strings still agree.
        let (k2, t2, s2) = (kernel.clone(), tcfg.clone(), scfg.clone());
        prop_assert_eq!(cache_key(&kernel, &tcfg, &scfg), cache_key(&k2, &t2, &s2));
    }

    /// Sensitivity: perturbing any one field changes the key.
    #[test]
    fn cache_key_separates_single_field_changes(
        kernel in "[a-z ]{1,30}",
        tcfg in "[a-z0-9]{1,15}",
        scfg in "[a-z0-9]{1,15}",
        salt in "[A-Z]{1,4}",
    ) {
        let base = cache_key(&kernel, &tcfg, &scfg);
        let bump = |s: &str| format!("{s}{salt}");
        prop_assert_ne!(base, cache_key(&bump(&kernel), &tcfg, &scfg));
        prop_assert_ne!(base, cache_key(&kernel, &bump(&tcfg), &scfg));
        prop_assert_ne!(base, cache_key(&kernel, &tcfg, &bump(&scfg)));
    }

    /// Field boundaries are unambiguous: moving a suffix of one field onto
    /// the front of the next produces a different key, because every field
    /// is hashed behind its own tag and length prefix.
    #[test]
    fn cache_key_fields_cannot_bleed(
        head in "[a-z]{1,10}",
        tail in "[a-z]{1,10}",
        scfg in "[a-z0-9]{0,12}",
    ) {
        let glued = format!("{head}{tail}");
        prop_assert_ne!(
            cache_key(&glued, "", &scfg),
            cache_key(&head, &tail, &scfg),
            "kernel/transform boundary must be part of the key"
        );
        prop_assert_ne!(
            cache_key("", &glued, &scfg),
            cache_key(&head, &tail, &scfg),
            "splitting one field into two must change the key"
        );
    }

    /// Corruption: flip any single byte of a cached payload and the next
    /// lookup detects the checksum mismatch, evicts, and recomputes — the
    /// damaged bytes are never served.
    #[test]
    fn byte_flipped_entry_is_detected_and_recomputed(
        payload in "[a-z0-9:{},\"]{1,60}",
        nth in 0usize..64,
        xor in 1u8..128,
    ) {
        let key = cache_key("k", "t", "s");
        let mut cache = Cache::new(8);
        cache.insert(key, payload.clone().into_bytes());
        prop_assert!(matches!(cache.lookup(key), Lookup::Hit(p) if p == payload.as_bytes()));

        // Flip one byte in place (corrupt_nth targets payload bytes only).
        prop_assert!(cache.corrupt_nth(nth, xor).is_some());
        prop_assert!(
            matches!(cache.lookup(key), Lookup::CorruptEvicted),
            "damaged entry must be evicted, not served"
        );
        prop_assert!(matches!(cache.lookup(key), Lookup::Miss), "gone after eviction");

        // Recompute path: a fresh insert restores byte-identical service.
        cache.insert(key, payload.clone().into_bytes());
        prop_assert!(matches!(cache.lookup(key), Lookup::Hit(p) if p == payload.as_bytes()));
    }

    /// The checksum itself is content-addressed: equal payloads hash equal,
    /// and the FNV of the payload matches what the index reports against.
    #[test]
    fn fnv_is_stable_for_equal_bytes(payload in "[ -~]{0,50}") {
        prop_assert_eq!(fnv64(payload.as_bytes()), fnv64(payload.clone().as_bytes()));
    }
}
