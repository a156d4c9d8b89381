//! PDICT — dictionary compression for low-cardinality columns.
//!
//! Values are replaced by codes into a per-block dictionary; codes are
//! bit-packed at `ceil(log2(|dict|))` bits. Works for integers (this module)
//! and strings ([`encode_strings`]/[`decode_codes`]), which is how
//! Vectorwise stores enumerated VARCHAR columns like `l_returnflag`. A
//! decoded string dictionary — and a raw string block — is a [`StrArena`].

use crate::bitpack;
use crate::io::{ByteReader, ByteWriter};
use crate::{bits_for, emit, emit_words, Lane};
use std::hash::Hash;
use std::sync::Arc;
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
    let (distinct, mut codes) = first_seen(values, key, limit)?;
    Some((sort_ranks(distinct, &mut codes), codes))
}

/// The distinct values of `values` in first-seen order and each value's
/// first-seen id; `None` past `limit` distinct values.
fn first_seen<T: Copy, K: Hash + Eq>(
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
    Some((distinct, codes))
}

/// Sort first-seen `distinct` values and renumber `codes` from first-seen
/// ids to ranks; returns the sorted values.
fn sort_ranks<T: Ord + Copy>(distinct: Vec<T>, codes: &mut [u64]) -> Vec<T> {
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    order.sort_unstable_by_key(|&id| distinct[id]);
    let mut rank = vec![0u64; distinct.len()];
    for (r, &id) in order.iter().enumerate() {
        rank[id] = r as u64;
    }
    for code in codes {
        *code = rank[*code as usize];
    }
    order.iter().map(|&id| distinct[id]).collect()
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

/// An immutable string arena: every entry's bytes in one UTF-8 buffer,
/// validated once when the arena is built, and `u32` offsets into it —
/// the one in-memory form of a string block, PDICT dictionary or raw.
/// Entries are read as `&str` slices ([`StrArena::get`], indexing); an
/// arena costs two allocations however many entries it holds.
///
/// `distinct` says no two entries are equal — true for a PDICT
/// dictionary, false for a raw block, whose entries are its rows. Equal
/// codes always mean equal strings; *different* codes mean different
/// strings only over a distinct arena, so every code-equality shortcut
/// must check [`StrArena::distinct`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrArena {
    bytes: String,
    /// `len() + 1` offsets; entry `i` is `bytes[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    distinct: bool,
}

static EMPTY_ARENA: std::sync::LazyLock<Arc<StrArena>> =
    std::sync::LazyLock::new(|| Arc::new(StrArena::from_strs([], true)));

impl StrArena {
    /// An arena over `values`, in order. `distinct` is the caller's word
    /// that no two values are equal.
    pub fn from_strs<'a>(values: impl IntoIterator<Item = &'a str>, distinct: bool) -> StrArena {
        let mut bytes = String::new();
        let mut offsets = vec![0u32];
        for v in values {
            bytes.push_str(v);
            offsets.push(u32::try_from(bytes.len()).expect("string arena over 4 GiB"));
        }
        StrArena { bytes, offsets, distinct }
    }

    /// An empty, non-distinct arena with room for `entries` entries of
    /// `bytes` bytes in all — the output buffer of a string kernel.
    pub fn with_capacity(entries: usize, bytes: usize) -> StrArena {
        let mut offsets = Vec::with_capacity(entries + 1);
        offsets.push(0);
        StrArena { bytes: String::with_capacity(bytes), offsets, distinct: false }
    }

    /// Drop every entry, keeping both buffers' capacity; the arena reads
    /// as non-distinct again.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.offsets.truncate(1);
        self.distinct = false;
    }

    /// Append `s` as the next entry; returns its code.
    #[inline]
    pub fn push(&mut self, s: &str) -> u32 {
        self.push_with(|b| b.push_str(s))
    }

    /// Append the next entry by letting `write` append its text to the
    /// arena's buffer (it must only append); returns the entry's code.
    #[inline]
    pub fn push_with(&mut self, write: impl FnOnce(&mut String)) -> u32 {
        let start = self.bytes.len();
        write(&mut self.bytes);
        assert!(self.bytes.len() >= start, "a string arena entry may only append");
        self.offsets.push(u32::try_from(self.bytes.len()).expect("string arena over 4 GiB"));
        (self.offsets.len() - 2) as u32
    }

    /// The shared empty arena: a placeholder that pins no block's strings
    /// (cloning it allocates nothing).
    pub fn empty() -> Arc<StrArena> {
        EMPTY_ARENA.clone()
    }

    /// Read `n` entries laid out as `len u32, bytes` each — a PDICT
    /// dictionary or a raw string block. The bytes are copied into one
    /// buffer and validated as UTF-8 once; `Corruption` on a short block,
    /// invalid UTF-8, or an entry that would split a character.
    pub fn read(r: &mut ByteReader, n: usize, distinct: bool) -> Result<StrArena> {
        // The length check doubles as the allocation guard: a corrupted
        // header cannot ask for more entries than the payload holds.
        if n > r.remaining() / 4 {
            return Err(VwError::Corruption(format!("string block of {n} entries is truncated")));
        }
        // What the entries can hold at most: exact for a raw block, which
        // ends its chunk; a PDICT dictionary's codes follow it.
        let room = r.remaining() - 4 * n;
        if room > u32::MAX as usize {
            return Err(VwError::Corruption("string block over 4 GiB".into()));
        }
        let mut bytes = Vec::with_capacity(room);
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        for _ in 0..n {
            let len = r.get_u32()? as usize;
            bytes.extend_from_slice(r.get_bytes(len)?);
            offsets.push(bytes.len() as u32);
        }
        let invalid = || VwError::Corruption("invalid UTF-8 in string block".into());
        let bytes = String::from_utf8(bytes).map_err(|_| invalid())?;
        // Valid as a whole and cut only at character boundaries is valid
        // entry by entry.
        if !offsets.iter().all(|&o| bytes.is_char_boundary(o as usize)) {
            return Err(invalid());
        }
        Ok(StrArena { bytes, offsets, distinct })
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when the arena has no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i`, or `None` past the end.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&str> {
        let (start, end) = (*self.offsets.get(i)?, *self.offsets.get(i + 1)?);
        Some(&self.bytes[start as usize..end as usize])
    }

    /// The entries, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// True when no two entries are equal (see the type's docs).
    #[inline]
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// Heap bytes held: the string bytes and the offsets.
    pub fn byte_size(&self) -> usize {
        self.bytes.len() + self.offsets.len() * 4
    }
}

impl std::ops::Index<usize> for StrArena {
    type Output = str;

    #[inline]
    fn index(&self, i: usize) -> &str {
        let (start, end) = (self.offsets[i], self.offsets[i + 1]);
        &self.bytes[start as usize..end as usize]
    }
}

/// A dictionary-compressed string block, borrowing its dictionary from
/// the values it encodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StringDict<'a> {
    /// Sorted distinct strings.
    pub dict: Vec<&'a str>,
    /// Packed codes (one per row) referencing `dict`.
    pub bytes: Vec<u8>,
    /// Number of rows.
    pub len: usize,
}

impl StringDict<'_> {
    /// Compressed size in bytes (dictionary + codes).
    pub fn compressed_bytes(&self) -> usize {
        self.dict.iter().map(|s| s.len() + 4).sum::<usize>() + self.bytes.len()
    }
}

/// A string block's distinct values in first-seen order and each value's
/// first-seen id — everything the raw-versus-PDICT choice needs, since a
/// dictionary's size does not depend on its order. Only a block that
/// goes PDICT pays for the sort ([`DistinctStrings::into_dict`]).
#[derive(Debug)]
pub struct DistinctStrings<'a> {
    distinct: Vec<&'a str>,
    ids: Vec<u64>,
}

impl<'a> DistinctStrings<'a> {
    /// Hash every value of the block once.
    pub fn of(values: &'a [String]) -> DistinctStrings<'a> {
        let (distinct, ids) =
            first_seen(values.iter().map(String::as_str), |s| s, usize::MAX).expect("no limit");
        DistinctStrings { distinct, ids }
    }

    /// Size of the block's PDICT encoding, [`StringDict::compressed_bytes`]
    /// without building it: each entry with its length word, and the
    /// packed codes.
    pub fn compressed_bytes(&self) -> usize {
        let bits = code_bits(self.distinct.len());
        self.distinct.iter().map(|s| s.len() + 4).sum::<usize>()
            + bitpack::packed_bytes(self.ids.len(), bits).expect("code widths are at most 33 bits")
    }

    /// Sort the dictionary, renumber the codes and pack them.
    pub fn into_dict(self) -> StringDict<'a> {
        let DistinctStrings { distinct, mut ids } = self;
        let dict = sort_ranks(distinct, &mut ids);
        let mut w = ByteWriter::new();
        bitpack::pack(&ids, code_bits(dict.len()), &mut w);
        StringDict { dict, bytes: w.into_bytes(), len: ids.len() }
    }
}

/// Dictionary-encode strings. Unlike the integer path this never fails:
/// string blocks with huge cardinality simply get a big dictionary (the
/// storage layer decides whether that is acceptable by inspecting the ratio).
/// The dictionary borrows `values`.
pub fn encode_strings(values: &[String]) -> StringDict<'_> {
    DistinctStrings::of(values).into_dict()
}

/// Unpack the codes of a PDICT string block of `n` rows over a dictionary
/// of `dict_len` entries — the scan keeps the codes and the shared
/// dictionary and never inflates the strings. Codes are validated against
/// the dictionary.
pub fn decode_codes(bytes: &[u8], n: usize, dict_len: usize, out: &mut Vec<u32>) -> Result<()> {
    out.clear();
    if n == 0 {
        return Ok(());
    }
    if dict_len == 0 {
        return Err(VwError::Corruption("empty string dictionary".into()));
    }
    let bits = code_bits(dict_len);
    let payload = bitpack::take_packed(&mut ByteReader::new(bytes), n, bits)?;
    out.reserve(n);
    bitpack::for_each_block(payload, n, bits, |codes| {
        check_codes(codes, dict_len)?;
        emit(codes, out)
    })
}

/// Append the strings `codes` name in `dict` to `out` — a `String` per
/// code, the cost every late-materialization boundary pays. `codes` must
/// already be validated against `dict`; every decode entry guarantees
/// that.
pub fn materialize_codes(codes: &[u32], dict: &StrArena, out: &mut Vec<String>) {
    out.extend(codes.iter().map(|&c| dict[c as usize].to_owned()));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The encoder this module had before it went over borrowed values:
    /// copy every value, sort, dedup, index. Kept as the oracle.
    fn encode_strings_reference(values: &[String]) -> (Vec<String>, Vec<u8>) {
        let mut dict: Vec<String> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        let index: FxHashMap<&str, u32> =
            dict.iter().enumerate().map(|(i, s)| (s.as_str(), i as u32)).collect();
        let bits = code_bits(dict.len());
        let codes: Vec<u64> = values.iter().map(|s| index[s.as_str()] as u64).collect();
        let mut w = ByteWriter::new();
        bitpack::pack(&codes, bits, &mut w);
        (dict, w.into_bytes())
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

    /// Decode `sd` as a reader would: its dictionary as an arena, its
    /// codes, and the strings they materialize to.
    fn decode(sd: &StringDict) -> (StrArena, Vec<u32>, Vec<String>) {
        let arena = StrArena::from_strs(sd.dict.iter().copied(), true);
        let mut codes = Vec::new();
        decode_codes(&sd.bytes, sd.len, arena.len(), &mut codes).unwrap();
        let mut out = Vec::new();
        materialize_codes(&codes, &arena, &mut out);
        (arena, codes, out)
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
        let sd = encode_strings(&values);
        assert_eq!(sd.dict, vec!["A", "N", "R"]);
        assert!(sd.compressed_bytes() < 999); // ~2 bits per row
        let (arena, codes, out) = decode(&sd);
        assert_eq!(out, values);
        assert!(arena.distinct());
        assert_eq!(codes.len(), values.len());
        assert!(codes.iter().zip(&values).all(|(&c, v)| &arena[c as usize] == v));
    }

    #[test]
    fn string_dict_empty_and_unique() {
        let sd = encode_strings(&[]);
        assert!(decode(&sd).2.is_empty());
        let values: Vec<String> = (0..100).map(|i| format!("s{i}")).collect();
        assert_eq!(decode(&encode_strings(&values)).2, values);
    }

    #[test]
    fn codes_over_an_empty_dictionary_are_corruption() {
        let mut codes = Vec::new();
        assert!(decode_codes(&[0; 8], 0, 0, &mut codes).is_ok());
        assert!(matches!(decode_codes(&[0; 8], 3, 0, &mut codes), Err(VwError::Corruption(_))));
    }

    #[test]
    fn arena_reads_what_it_was_built_from() {
        let values = ["", "héllo", "мир", "日本", "", "x"];
        let arena = StrArena::from_strs(values, false);
        assert_eq!(arena.len(), 6);
        assert!(!arena.distinct());
        assert_eq!(arena.iter().collect::<Vec<_>>(), values);
        assert_eq!(arena.get(3), Some("日本"));
        assert_eq!(arena.get(6), None);
        assert_eq!(&arena[1], "héllo");
        assert_eq!(arena.byte_size(), values.iter().map(|v| v.len()).sum::<usize>() + 7 * 4);
        assert!(StrArena::empty().is_empty());
        assert!(Arc::ptr_eq(&StrArena::empty(), &StrArena::empty()));
    }

    /// `values` laid out as a string block: `len u32, bytes` each.
    fn block(values: &[&[u8]]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for v in values {
            w.put_u32(v.len() as u32);
            w.put_bytes(v);
        }
        w.into_bytes()
    }

    #[test]
    fn arena_read_validates_utf8_once_per_block() {
        let ok = block(&[b"ab", "é".as_bytes(), b""]);
        let arena = StrArena::read(&mut ByteReader::new(&ok), 3, false).unwrap();
        assert_eq!(arena.iter().collect::<Vec<_>>(), ["ab", "é", ""]);
        // Invalid bytes; and a two-byte character split across two entries,
        // valid as a whole buffer but not entry by entry.
        let e = "é".as_bytes();
        for bad in [block(&[b"ab", &[0xff, 0xfe]]), block(&[&e[..1], &e[1..]])] {
            let got = StrArena::read(&mut ByteReader::new(&bad), 2, false);
            assert!(
                matches!(&got, Err(VwError::Corruption(m)) if m.contains("invalid UTF-8")),
                "{got:?}"
            );
        }
        // Truncated, and an entry count the payload cannot hold.
        assert!(StrArena::read(&mut ByteReader::new(&ok[..ok.len() - 2]), 3, false).is_err());
        assert!(StrArena::read(&mut ByteReader::new(&ok), 1 << 30, false).is_err());
    }

    #[test]
    fn packed_bytes_is_what_pack_writes() {
        for bits in [1u32, 2, 3, 7, 13, 31, 64] {
            for n in [0usize, 1, 63, 64, 65, 1000] {
                let mut w = ByteWriter::new();
                let max = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
                bitpack::pack(&vec![max; n], bits, &mut w);
                assert_eq!(w.len(), bitpack::packed_bytes(n, bits).unwrap(), "bits {bits} n {n}");
            }
        }
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
                let got = encode_strings(&values);
                let (dict, bytes) = encode_strings_reference(&values);
                assert_eq!(got.dict, dict, "len {len} distinct {distinct}");
                assert_eq!(got.bytes, bytes, "len {len} distinct {distinct}");
                let distinct = DistinctStrings::of(&values);
                assert_eq!(distinct.compressed_bytes(), got.compressed_bytes());
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
