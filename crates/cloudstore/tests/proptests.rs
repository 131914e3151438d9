//! Property tests: the LZ codec roundtrips on arbitrary inputs, including
//! adversarial repetition structures, inputs past its 64 KiB window and
//! its 259-byte match cap, and staged-text-shaped data; any split of an
//! input into frames decodes to the input; a damaged frame decodes to an
//! error or to the declared length, never a panic; and the object store
//! behaves like a map.

use proptest::prelude::*;

use etlv_cloudstore::{compress, decompress, MemStore, ObjectStore};

/// `rows` staged lines of dictionary words, shaped like `bulk_wide`: a
/// key, then `cols` columns of five words drawn (skewed) from a
/// 4096-word dictionary built from `seed`.
fn dictionary_text(seed: u64, rows: usize, cols: usize) -> Vec<u8> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    };
    let dict: Vec<Vec<u8>> = (0..4096)
        .map(|rank| {
            (0..3 + rank % 8)
                .map(|_| b'a' + (next() % 26) as u8)
                .collect()
        })
        .collect();
    let mut out = Vec::new();
    for row in 0..rows {
        out.extend_from_slice(format!("R{row:08}").as_bytes());
        for col in 0..cols * 5 {
            out.push(if col % 5 == 0 { b'|' } else { b' ' });
            let u = next() as f64 / (1u64 << 31) as f64;
            out.extend_from_slice(&dict[(u * u * u * dict.len() as f64) as usize]);
        }
        out.push(b'\n');
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lzss_roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzss_roundtrip_repetitive(
        unit in proptest::collection::vec(any::<u8>(), 1..16),
        reps in 1usize..400,
    ) {
        let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lzss_decompress_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Arbitrary bytes must decode or error, never panic.
        let _ = decompress(&data);
    }

    #[test]
    fn lz_roundtrip_tiny(data in proptest::collection::vec(any::<u8>(), 0..=8)) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_long_runs(
        runs in proptest::collection::vec((any::<u8>(), 1usize..2_000), 1..8),
    ) {
        // Runs past the 259-byte match cap, back to back.
        let data: Vec<u8> = runs
            .iter()
            .flat_map(|&(byte, len)| std::iter::repeat_n(byte, len))
            .collect();
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_roundtrip_dictionary_text(seed in any::<u64>(), rows in 1usize..40) {
        let data = dictionary_text(seed, rows, 49);
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }

    #[test]
    fn lz_any_split_into_frames_decodes_to_the_concatenation(
        seed in any::<u64>(),
        rows in 1usize..12,
        cuts in proptest::collection::vec(any::<u16>(), 0..6),
    ) {
        let data = dictionary_text(seed, rows, 8);
        let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (data.len() + 1)).collect();
        cuts.sort_unstable();
        let mut object = Vec::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain([data.len()]) {
            object.extend_from_slice(&compress(&data[from..cut]));
            from = cut;
        }
        prop_assert_eq!(decompress(&object).unwrap(), data);
    }

    #[test]
    fn lz_damaged_block_never_panics(seed in any::<u64>(), rows in 1usize..4) {
        // Every prefix of a valid frame is an error. A single-byte flip
        // decodes to an error or to output of the declared length: the
        // format has no checksum, so a flipped literal or offset can
        // decode to other bytes, but never to a different length, and a
        // flip in the 20-byte header is always caught. None of it panics.
        let data = dictionary_text(seed, rows, 4);
        let c = compress(&data);
        for cut in 0..c.len() {
            prop_assert!(decompress(&c[..cut]).is_err(), "prefix {cut} of {}", c.len());
        }
        let mut flipped = c.clone();
        for at in 0..c.len() {
            for bit in 0..8 {
                flipped[at] ^= 1 << bit;
                if let Ok(out) = decompress(&flipped) {
                    prop_assert!(at >= 20, "header flip at {} bit {} decoded", at, bit);
                    prop_assert_eq!(out.len(), data.len(), "flip at {} bit {}", at, bit);
                }
                flipped[at] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn store_put_get_consistency(
        entries in proptest::collection::vec(("[a-z]{1,8}", proptest::collection::vec(any::<u8>(), 0..64)), 1..20)
    ) {
        let store = MemStore::new();
        let mut last = std::collections::HashMap::new();
        for (key, data) in &entries {
            store.put("b", key, data.clone()).unwrap();
            last.insert(key.clone(), data.clone());
        }
        for (key, data) in &last {
            prop_assert_eq!(&store.get("b", key).unwrap(), data);
        }
        let mut keys: Vec<String> = last.keys().cloned().collect();
        keys.sort();
        prop_assert_eq!(store.list("b", "").unwrap(), keys);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn lz_roundtrip_past_the_window(seed in any::<u64>(), rows in 60usize..120) {
        // 100–200 KiB of staged text: matches must reach across, and stop
        // at, the 64 KiB window.
        let data = dictionary_text(seed, rows, 49);
        prop_assert!(data.len() > 64 * 1024);
        let c = compress(&data);
        prop_assert_eq!(decompress(&c).unwrap(), data);
    }
}
