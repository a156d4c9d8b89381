//! PDICT — dictionary compression for low-cardinality columns.
//!
//! Values are replaced by codes into a per-block dictionary; codes are
//! bit-packed at `ceil(log2(|dict|))` bits. Works for integers (this module)
//! and strings ([`encode_strings`]/[`decode_strings`]), which is how
//! Vectorwise stores enumerated VARCHAR columns like `l_returnflag`.

use crate::bitpack;
use crate::io::{ByteReader, ByteWriter};
use crate::{bits_for, emit, emit_words, Lane};
use std::hash::Hash;
use vw_common::hash::{hash_u64, FxHashMap};
use vw_common::{Result, VwError};

/// Maximum dictionary entries per block; beyond this PDICT stops paying off
/// and the scheme chooser falls back to PFOR/RAW.
pub const MAX_DICT: usize = 4096;

/// Encode integers via dictionary. Errors if cardinality exceeds [`MAX_DICT`].
///
/// Layout: `dict_len u32 | dict values (u64)* | packed codes`.
/// The dictionary is sorted, so decoded blocks also expose min/max cheaply.
pub fn encode_i64(values: &[i64], w: &mut ByteWriter) -> Result<()> {
    // Keyed by the mixed value: `f64` bits of whole numbers end in zeros
    // (see `FxHasher`).
    let (dict, codes) = dictionary(values.iter().copied(), |v| hash_u64(v as u64), MAX_DICT)
        .ok_or_else(|| {
            VwError::Unsupported(format!("dictionary too large: over {MAX_DICT} values"))
        })?;
    w.put_u32(dict.len() as u32);
    for &v in &dict {
        w.put_u64(v as u64);
    }
    bitpack::pack(&codes, code_bits(dict.len()), w);
    Ok(())
}

/// The sorted distinct values of `values` and each value's code, its rank
/// among them; `None` past `limit` distinct values. Each value takes the
/// id of its first occurrence, found by `key`; then only the distinct
/// values are sorted and the ids renumbered: the codes a sort of every
/// value would give, without that sort.
fn dictionary<T: Ord + Copy, K: Hash + Eq>(
    values: impl ExactSizeIterator<Item = T>,
    key: impl Fn(T) -> K,
    limit: usize,
) -> Option<(Vec<T>, Vec<u64>)> {
    let mut first_seen: FxHashMap<K, u64> = FxHashMap::default();
    let mut distinct: Vec<T> = Vec::new();
    let mut codes = Vec::with_capacity(values.len());
    for v in values {
        codes.push(*first_seen.entry(key(v)).or_insert_with(|| {
            distinct.push(v);
            distinct.len() as u64 - 1
        }));
        if distinct.len() > limit {
            return None;
        }
    }
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    order.sort_unstable_by_key(|&id| distinct[id]);
    let mut rank = vec![0u64; distinct.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id] = r as u64;
    }
    for code in &mut codes {
        *code = rank[*code as usize];
    }
    Some((order.iter().map(|&id| distinct[id]).collect(), codes))
}

/// Decode a PDICT integer block of `n` values, appending to `out`: the
/// dictionary is narrowed to `T` once, and each block of codes is looked
/// up as it leaves the unpack kernel.
pub fn decode_i64<T: Lane>(r: &mut ByteReader, n: usize, out: &mut Vec<T>) -> Result<()> {
    let dict_len = r.get_u32()? as usize;
    if dict_len == 0 {
        return if n == 0 {
            Ok(())
        } else {
            Err(VwError::Corruption("empty dictionary for nonempty block".into()))
        };
    }
    // The length check doubles as the allocation guard: a corrupted header
    // cannot ask for more entries than the payload holds.
    let mut dict: Vec<T> = Vec::new();
    emit_words(r.get_bytes(dict_len.saturating_mul(8))?, &mut dict)?;
    let bits = code_bits(dict_len);
    let payload = bitpack::take_packed(r, n, bits)?;
    bitpack::for_each_block(payload, n, bits, |codes| {
        check_codes(codes, dict_len)?;
        out.extend(codes.iter().map(|&c| dict[c as usize]));
        Ok(())
    })
}

/// `Corruption` unless every code of the block indexes a dictionary of
/// `dict_len > 0` entries — one reduction per block, so the lookups that
/// follow need no per-value error path. Codes and `dict_len` are below
/// 2^33, so `last - code` borrows into the sign bit exactly when the code
/// is out of range: a subtract and an OR per value, no compare.
fn check_codes(codes: &[u64], dict_len: usize) -> Result<()> {
    let last = dict_len as u64 - 1;
    if codes.iter().fold(0, |acc, &c| acc | last.wrapping_sub(c)) >> 63 != 0 {
        return Err(VwError::Corruption(format!("dict code out of range {dict_len}")));
    }
    Ok(())
}

/// Bits per code for a dictionary of `len` entries (at least 1 so that a
/// single-entry dictionary still emits decodable codes).
fn code_bits(len: usize) -> u32 {
    bits_for(len.saturating_sub(1) as u64).max(1)
}

/// A dictionary-compressed string block. Decoding owns its dictionary;
/// [`encode_strings`] borrows it from the values it encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringDict<S = String> {
    /// Sorted distinct strings.
    pub dict: Vec<S>,
    /// Packed codes (one per row) referencing `dict`.
    pub bytes: Vec<u8>,
    /// Number of rows.
    pub len: usize,
}

impl<S: AsRef<str>> StringDict<S> {
    /// Compressed size in bytes (dictionary + codes).
    pub fn compressed_bytes(&self) -> usize {
        self.dict.iter().map(|s| s.as_ref().len() + 4).sum::<usize>() + self.bytes.len()
    }
}

/// Dictionary-encode strings. Unlike the integer path this never fails:
/// string blocks with huge cardinality simply get a big dictionary (the
/// storage layer decides whether that is acceptable by inspecting the ratio).
/// The dictionary borrows `values`.
pub fn encode_strings(values: &[String]) -> StringDict<&str> {
    let (dict, codes) =
        dictionary(values.iter().map(String::as_str), |s| s, usize::MAX).expect("no limit");
    let mut w = ByteWriter::new();
    bitpack::pack(&codes, code_bits(dict.len()), &mut w);
    StringDict { dict, bytes: w.into_bytes(), len: values.len() }
}

/// Decode a string dictionary block into owned strings, reusing the
/// caller's buffer as a string arena: `out`'s existing `String`
/// allocations are overwritten in place (`clone_into`), so a scan that
/// hands the same buffer back pack after pack is allocation-free in
/// steady state (no fresh `String` per value per pack).
pub fn decode_strings(sd: &StringDict, out: &mut Vec<String>) -> Result<()> {
    if sd.len == 0 {
        out.clear();
        return Ok(());
    }
    if sd.dict.is_empty() {
        return Err(VwError::Corruption("empty string dictionary".into()));
    }
    let mut codes = Vec::with_capacity(sd.len);
    decode_codes(sd, &mut codes)?;
    materialize_codes(&codes, &sd.dict, out);
    Ok(())
}

/// Unpack only the codes of a string dictionary block — the compressed
/// execution entry: the scan keeps the codes + shared dictionary and never
/// inflates the strings. Codes are validated against the dictionary.
pub fn decode_codes(sd: &StringDict, out: &mut Vec<u32>) -> Result<()> {
    out.clear();
    if sd.len == 0 {
        return Ok(());
    }
    if sd.dict.is_empty() {
        return Err(VwError::Corruption("empty string dictionary".into()));
    }
    let bits = code_bits(sd.dict.len());
    let payload = bitpack::take_packed(&mut ByteReader::new(&sd.bytes), sd.len, bits)?;
    out.reserve(sd.len);
    bitpack::for_each_block(payload, sd.len, bits, |codes| {
        check_codes(codes, sd.dict.len())?;
        emit(codes, out)
    })
}

/// Materialize dictionary codes into `out`, reusing its existing `String`
/// allocations (arena-style). `codes` must already be validated against
/// `dict` — both decode entries above guarantee that.
pub fn materialize_codes(codes: &[u32], dict: &[String], out: &mut Vec<String>) {
    let reuse = out.len().min(codes.len());
    for (slot, &c) in out[..reuse].iter_mut().zip(codes) {
        dict[c as usize].clone_into(slot);
    }
    out.truncate(codes.len());
    out.extend(codes[reuse..].iter().map(|&c| dict[c as usize].clone()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder this module had before it went over borrowed values:
    /// copy every value, sort, dedup, index. Kept as the oracle.
    fn encode_strings_reference(values: &[String]) -> StringDict {
        let mut dict: Vec<String> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let index: FxHashMap<&str, u32> =
            dict.iter().enumerate().map(|(i, s)| (s.as_str(), i as u32)).collect();
        let bits = code_bits(dict.len());
        let codes: Vec<u64> = values.iter().map(|s| index[s.as_str()] as u64).collect();
        let mut w = ByteWriter::new();
        bitpack::pack(&codes, bits, &mut w);
        StringDict { dict, bytes: w.into_bytes(), len: values.len() }
    }

    /// The integer encoder this module had before it assigned first-seen
    /// ids: copy, sort and dedup every value, then index. Kept as the
    /// oracle.
    fn encode_i64_reference(values: &[i64], w: &mut ByteWriter) -> Result<()> {
        let mut dict: Vec<i64> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        if dict.len() > MAX_DICT {
            return Err(VwError::Unsupported("dictionary too large".into()));
        }
        let index: std::collections::BTreeMap<i64, u32> =
            dict.iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        w.put_u32(dict.len() as u32);
        for &v in &dict {
            w.put_u64(v as u64);
        }
        let bits = code_bits(dict.len());
        let codes: Vec<u64> = values.iter().map(|v| index[v] as u64).collect();
        bitpack::pack(&codes, bits, w);
        Ok(())
    }

    /// The block as the decoder holds it.
    fn owned(sd: StringDict<&str>) -> StringDict {
        let dict = sd.dict.iter().map(|s| s.to_string()).collect();
        StringDict { dict, bytes: sd.bytes, len: sd.len }
    }

    #[test]
    fn int_dict_roundtrip() {
        let dict_vals = [10i64, -3, 1_000_000, 0];
        let values: Vec<i64> = (0..5000).map(|i| dict_vals[i % 4]).collect();
        let mut w = ByteWriter::new();
        encode_i64(&values, &mut w).unwrap();
        let bytes = w.into_bytes();
        // 4 entries → 2 bits/code.
        assert!(bytes.len() < 4 + 32 + 5000 / 4 + 16);
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode_i64(&mut r, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn single_value_dict() {
        let values = vec![42i64; 1000];
        let mut w = ByteWriter::new();
        encode_i64(&values, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode_i64(&mut r, 1000, &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn oversized_dict_rejected() {
        let values: Vec<i64> = (0..(MAX_DICT as i64 + 1)).collect();
        let mut w = ByteWriter::new();
        assert!(encode_i64(&values, &mut w).is_err());
    }

    #[test]
    fn string_dict_roundtrip() {
        let flags = ["A", "N", "R"];
        let values: Vec<String> = (0..999).map(|i| flags[i % 3].to_string()).collect();
        let sd = owned(encode_strings(&values));
        assert_eq!(sd.dict, vec!["A".to_string(), "N".into(), "R".into()]);
        assert!(sd.compressed_bytes() < 999); // ~2 bits per row
        let mut out = Vec::new();
        decode_strings(&sd, &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn string_dict_empty_and_unique() {
        let sd = owned(encode_strings(&[]));
        let mut out = vec!["junk".to_string()];
        decode_strings(&sd, &mut out).unwrap();
        assert!(out.is_empty());

        let values: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        let sd = owned(encode_strings(&values));
        decode_strings(&sd, &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn decode_codes_matches_decode_strings() {
        let flags = ["A", "N", "R"];
        let values: Vec<String> = (0..500).map(|i| flags[i % 3].to_string()).collect();
        let sd = owned(encode_strings(&values));
        let mut codes = Vec::new();
        decode_codes(&sd, &mut codes).unwrap();
        assert_eq!(codes.len(), values.len());
        let decoded: Vec<String> = codes.iter().map(|&c| sd.dict[c as usize].clone()).collect();
        assert_eq!(decoded, values);
    }

    #[test]
    fn decode_strings_reuses_arena() {
        let values: Vec<String> = (0..64).map(|i| format!("value-{:02}", i % 7)).collect();
        let sd = owned(encode_strings(&values));
        // Pre-fill the arena with strings of ample capacity, then record
        // their buffer addresses: a second decode must write into the same
        // allocations instead of replacing them.
        let mut out = Vec::new();
        decode_strings(&sd, &mut out).unwrap();
        assert_eq!(out, values);
        let addrs: Vec<*const u8> = out.iter().map(|s| s.as_ptr()).collect();
        decode_strings(&sd, &mut out).unwrap();
        assert_eq!(out, values);
        let addrs2: Vec<*const u8> = out.iter().map(|s| s.as_ptr()).collect();
        assert_eq!(addrs, addrs2);
    }

    #[test]
    fn corrupt_code_detected() {
        let values = vec![1i64, 2, 1, 2];
        let mut w = ByteWriter::new();
        encode_i64(&values, &mut w).unwrap();
        let mut bytes = w.into_bytes();
        // dict_len=2 → 1 bit codes; flip packed bits to all-ones is still
        // in-range, so instead shrink the dictionary claim.
        bytes[0] = 1; // dict_len = 1 → every code must be 0, but codes contain 1s
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        assert!(decode_i64(&mut r, 4, &mut out).is_err());
    }

    #[test]
    fn string_encoder_matches_the_sorting_reference() {
        // Shared 8-byte prefixes, non-ASCII, the empty string, repeats in
        // every order, and blocks of every cardinality up to all-distinct.
        let pool =
            ["", "a", "ab", "b", "Zeta", "prefix__a", "prefix__b", "prefix__", "é", "ö", "日本"];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for len in [0usize, 1, 2, 17, 1000, 5000] {
            for distinct in [1u64, 3, 50, 100_000] {
                let values: Vec<String> = (0..len)
                    .map(|_| {
                        let r = next() % distinct;
                        let base = pool[(r % pool.len() as u64) as usize];
                        if r < pool.len() as u64 {
                            base.to_string()
                        } else {
                            format!("{base}{r}")
                        }
                    })
                    .collect();
                let got = owned(encode_strings(&values));
                assert_eq!(got, encode_strings_reference(&values), "len {len} distinct {distinct}");
            }
        }
    }

    #[test]
    fn int_encoder_matches_the_sorting_reference() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let special =
            [i64::MIN, i64::MAX, -1, 0, f64::NAN.to_bits() as i64, (-0.0f64).to_bits() as i64];
        for len in [0usize, 1, 17, 5000, 16 * 1024] {
            for distinct in [1u64, 25, 4000, MAX_DICT as u64, MAX_DICT as u64 + 1] {
                // Whole numbers as doubles (low bits all zero), raw
                // integers, and the extremes.
                let values: Vec<i64> = (0..len as u64)
                    .map(|i| {
                        // Every id below `distinct` once, then at random.
                        let r = if i < distinct { i } else { next() % distinct };
                        match r % 3 {
                            0 => (r as f64).to_bits() as i64,
                            1 => r as i64 * 1_000_003 - 7,
                            _ => special[r as usize % special.len()] ^ ((r as i64) << 8),
                        }
                    })
                    .collect();
                let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
                let (g, r) =
                    (encode_i64(&values, &mut got), encode_i64_reference(&values, &mut want));
                assert_eq!(g.is_ok(), r.is_ok(), "len {len} distinct {distinct}");
                if g.is_ok() {
                    assert_eq!(
                        got.into_bytes(),
                        want.into_bytes(),
                        "len {len} distinct {distinct}"
                    );
                }
            }
        }
    }
}
