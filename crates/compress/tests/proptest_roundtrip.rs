//! Property tests: every codec must round-trip arbitrary i64 data exactly.

use proptest::prelude::*;
use vw_compress::{compress_auto, compress_with, decompress_into, Encoding};

fn roundtrip_ok(values: &[i64], enc: Encoding) -> bool {
    let c = match compress_with(values, enc) {
        Ok(c) => c,
        // Dict may legitimately refuse high cardinality.
        Err(_) => return enc == Encoding::Dict,
    };
    let mut out = Vec::new();
    decompress_into(&c, &mut out).unwrap();
    out == values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn raw_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..512)) {
        prop_assert!(roundtrip_ok(&values, Encoding::Raw));
    }

    #[test]
    fn bitpack_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..512)) {
        prop_assert!(roundtrip_ok(&values, Encoding::BitPack));
    }

    #[test]
    fn pfor_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..512)) {
        prop_assert!(roundtrip_ok(&values, Encoding::Pfor));
    }

    #[test]
    fn pfor_delta_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..512)) {
        prop_assert!(roundtrip_ok(&values, Encoding::PforDelta));
    }

    #[test]
    fn rle_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..512)) {
        prop_assert!(roundtrip_ok(&values, Encoding::Rle));
    }

    #[test]
    fn dict_roundtrip_small_domain(values in proptest::collection::vec(-20i64..20, 0..512)) {
        prop_assert!(roundtrip_ok(&values, Encoding::Dict));
    }

    #[test]
    fn auto_roundtrip(values in proptest::collection::vec(any::<i64>(), 0..512)) {
        let c = compress_auto(&values);
        let mut out = Vec::new();
        decompress_into(&c, &mut out).unwrap();
        prop_assert_eq!(out, values);
    }

    #[test]
    fn auto_roundtrip_skewed(
        values in proptest::collection::vec(
            prop_oneof![
                3 => 0i64..100,
                1 => any::<i64>(),
                2 => Just(7i64),
            ],
            0..1024,
        )
    ) {
        let c = compress_auto(&values);
        let mut out = Vec::new();
        decompress_into(&c, &mut out).unwrap();
        prop_assert_eq!(out, values);
    }

    #[test]
    fn auto_roundtrip_sorted(mut values in proptest::collection::vec(any::<i64>(), 0..512)) {
        values.sort_unstable();
        let c = compress_auto(&values);
        let mut out = Vec::new();
        decompress_into(&c, &mut out).unwrap();
        prop_assert_eq!(out, values);
    }

    #[test]
    fn string_dict_roundtrip(
        values in proptest::collection::vec("[a-z]{0,8}", 0..256)
    ) {
        use vw_compress::dict::{decode_codes, encode_strings, materialize_codes, StrArena};
        let sd = encode_strings(&values);
        let arena = StrArena::from_strs(sd.dict.iter().copied(), true);
        let mut codes = Vec::new();
        decode_codes(&sd.bytes, sd.len, arena.len(), &mut codes).unwrap();
        let mut out = Vec::new();
        materialize_codes(&codes, &arena, &mut out);
        prop_assert_eq!(out, values);
    }

    #[test]
    fn decoder_never_panics_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        len in 0usize..300,
        tag in 0u8..6,
    ) {
        let c = vw_compress::Compressed {
            encoding: Encoding::from_tag(tag).unwrap(),
            len,
            bytes,
        };
        let mut out = Vec::new();
        // Must return Ok or Err — never panic, never loop forever.
        let _ = decompress_into(&c, &mut out);
    }
}
