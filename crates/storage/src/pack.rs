//! Column-chunk serialization: `ColData` (+ optional NULL indicator) ⇄ bytes.
//!
//! Chunk layout:
//!
//! ```text
//! chunk      := null_part value_part
//! null_part  := 0x00                          -- no NULLs
//!             | 0x01 ints_block               -- indicator as 0/1 ints
//! value_part := 0x00 ints_block               -- fixed-width types, widened
//!             | 0x01 strings_block
//! strings_block := 0x01 dict_len u32 entry* nbytes u32 codes  -- PDICT
//!             | 0x02 n u32 entry*                              -- raw
//! entry      := len u32, UTF-8 bytes
//! ints_block := tag u8, len u32, nbytes u32, payload
//! ```
//!
//! Integer-like data (including dates, bools, f64-bits) goes through
//! [`vw_compress::compress_auto`]; strings pick PDICT when the dictionary
//! pays for itself (ratio heuristic), raw otherwise. The choice is made
//! from the block's distinct set before any sort: only a block that goes
//! PDICT sorts its dictionary.
//!
//! Reading borrows the payload out of the block and decodes it in one pass
//! into a `Vec` of the column's own type ([`vw_compress::decompress`]): no
//! payload copy, no widened `i64` column in between, NULL indicators
//! straight to `Vec<bool>`. Either kind of string block reads into one
//! [`StrArena`] — the PDICT dictionary, or the raw block's rows — plus one
//! code per row, so a string costs no allocation of its own until someone
//! materializes it.

use std::ops::Range;
use std::sync::Arc;
use vw_common::{ColData, Result, TypeId, VwError};
use vw_compress::dict::{decode_codes, materialize_codes, DistinctStrings, StrArena};
use vw_compress::io::{ByteReader, ByteWriter};
use vw_compress::{
    bits_for, compress_auto, compress_with, decompress, rle, Compressed, Encoding, Lane,
};

fn put_ints(c: &Compressed, w: &mut ByteWriter) {
    w.put_u8(c.encoding.tag());
    w.put_u32(c.len as u32);
    w.put_u32(c.bytes.len() as u32);
    w.put_bytes(&c.bytes);
}

/// An `ints_block` still in its chunk: header fields and borrowed payload.
struct Ints<'a> {
    encoding: Encoding,
    len: usize,
    bytes: &'a [u8],
}

/// Read the `ints_block` holding a chunk's `what`, which must have `n` rows.
fn get_ints<'a>(r: &mut ByteReader<'a>, n: usize, what: &str) -> Result<Ints<'a>> {
    let encoding = Encoding::from_tag(r.get_u8()?)?;
    let len = r.get_u32()? as usize;
    if len != n {
        return Err(VwError::Corruption(format!("{what} has {len} rows, expected {n}")));
    }
    let nbytes = r.get_u32()? as usize;
    Ok(Ints { encoding, len, bytes: r.get_bytes(nbytes)? })
}

impl Ints<'_> {
    fn decode<T: Lane>(&self) -> Result<Vec<T>> {
        let mut out = Vec::new();
        decompress(self.encoding, self.len, self.bytes, &mut out)?;
        Ok(out)
    }

    /// Decode into a column of fixed-width type `ty`.
    fn decode_as(&self, ty: TypeId) -> Result<ColData> {
        Ok(match ty {
            TypeId::Bool => ColData::Bool(self.decode()?),
            TypeId::I8 => ColData::I8(self.decode()?),
            TypeId::I16 => ColData::I16(self.decode()?),
            TypeId::I32 => ColData::I32(self.decode()?),
            TypeId::I64 => ColData::I64(self.decode()?),
            TypeId::F64 => ColData::F64(self.decode()?),
            TypeId::Date => ColData::Date(self.decode()?),
            TypeId::Str => {
                return Err(VwError::Corruption("integer block for VARCHAR column".into()))
            }
        })
    }
}

/// Read a chunk's `null_part`.
fn get_nulls(r: &mut ByteReader, n: usize) -> Result<Option<Vec<bool>>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(get_ints(r, n, "null indicator")?.decode()?)),
        t => Err(VwError::Corruption(format!("unknown null part tag {t}"))),
    }
}

/// `Corruption` unless a string block may sit in a column of type `ty`.
fn expect_str(ty: TypeId) -> Result<()> {
    if ty == TypeId::Str {
        Ok(())
    } else {
        Err(VwError::Corruption(format!("string block for {} column", ty.sql_name())))
    }
}

fn put_strings(values: &[String], w: &mut ByteWriter) {
    let distinct = DistinctStrings::of(values);
    let raw_size: usize = values.iter().map(|s| s.len() + 4).sum();
    if distinct.compressed_bytes() * 2 < raw_size {
        let sd = distinct.into_dict();
        w.put_u8(1);
        w.put_u32(sd.dict.len() as u32);
        for s in &sd.dict {
            w.put_u32(s.len() as u32);
            w.put_bytes(s.as_bytes());
        }
        w.put_u32(sd.bytes.len() as u32);
        w.put_bytes(&sd.bytes);
    } else {
        w.put_u8(2);
        w.put_u32(values.len() as u32);
        for s in values {
            w.put_u32(s.len() as u32);
            w.put_bytes(s.as_bytes());
        }
    }
}

/// Read a `strings_block` of `n` rows: its arena and one code per row —
/// PDICT codes over the distinct dictionary, or a raw block's row
/// positions over an arena of its rows.
fn get_strings(r: &mut ByteReader, n: usize) -> Result<(Vec<u32>, StrArena)> {
    match r.get_u8()? {
        1 => {
            let dict_len = r.get_u32()? as usize;
            let dict = StrArena::read(r, dict_len, true)?;
            let nbytes = r.get_u32()? as usize;
            let mut codes = Vec::new();
            decode_codes(r.get_bytes(nbytes)?, n, dict.len(), &mut codes)?;
            Ok((codes, dict))
        }
        2 => {
            let cnt = r.get_u32()? as usize;
            if cnt != n {
                return Err(VwError::Corruption(format!(
                    "raw string block has {cnt} values, expected {n}"
                )));
            }
            let rows = StrArena::read(r, n, false)?;
            Ok(((0..n as u32).collect(), rows))
        }
        t => Err(VwError::Corruption(format!("unknown string block tag {t}"))),
    }
}

/// Serialize rows `rows` of a column (values + optional NULL indicator)
/// as one chunk, reading them in place.
///
/// `nulls`, when present, indexes the same rows as `data`; positions
/// flagged true are NULL and `data` holds safe defaults there.
pub fn encode_chunk(data: &ColData, rows: Range<usize>, nulls: Option<&[bool]>) -> Vec<u8> {
    encode_chunk_with(data, rows, nulls, compress_auto)
}

/// The integer encoding of a spill chunk: frame of reference when the
/// frame saves at least a byte a value, raw otherwise — one min/max pass
/// instead of [`compress_auto`]'s analysis (a distinct-value hash set,
/// run and sortedness counts, PFOR width histograms), which costs tens of
/// nanoseconds a value on random keys and doubles: far more than a temp
/// chunk, written once and read once, saves by being smaller. The tags
/// are the stable ones, so [`decode_chunk`] reads it unchanged.
fn compress_spill(values: &[i64]) -> Compressed {
    let (lo, hi) = values.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let frame = bits_for((hi as u64).wrapping_sub(lo as u64));
    let enc = if values.len() >= 16 && frame <= 56 { Encoding::BitPack } else { Encoding::Raw };
    compress_with(values, enc).expect("FOR and RAW accept any values")
}

/// [`encode_chunk`] with `ints` choosing the integer blocks' encoding.
fn encode_chunk_with(
    data: &ColData,
    rows: Range<usize>,
    nulls: Option<&[bool]>,
    ints: fn(&[i64]) -> Compressed,
) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match nulls.map(|m| &m[rows.clone()]) {
        Some(mask) if mask.iter().any(|&b| b) => {
            w.put_u8(1);
            let mask: Vec<i64> = mask.iter().map(|&b| b as i64).collect();
            put_ints(&ints(&mask), &mut w);
        }
        _ => w.put_u8(0),
    }
    match data {
        ColData::Str(values) => {
            w.put_u8(1); // value_part kind: strings (dict/raw decided inside)
            put_strings(&values[rows], &mut w);
        }
        other => {
            w.put_u8(0);
            let mut values = Vec::new();
            other.to_i64s(rows, &mut values);
            put_ints(&ints(&values), &mut w);
        }
    }
    w.into_bytes()
}

/// Deserialize a chunk of `n` rows of type `ty`.
/// Returns the values and the NULL indicator (None = no NULLs in chunk).
pub fn decode_chunk(bytes: &[u8], ty: TypeId, n: usize) -> Result<(ColData, Option<Vec<bool>>)> {
    let mut r = ByteReader::new(bytes);
    let nulls = get_nulls(&mut r, n)?;
    let data = match r.get_u8()? {
        0 => get_ints(&mut r, n, "value block")?.decode_as(ty)?,
        1 => {
            expect_str(ty)?;
            let (codes, arena) = get_strings(&mut r, n)?;
            let mut out = Vec::with_capacity(n);
            materialize_codes(&codes, &arena, &mut out);
            ColData::Str(out)
        }
        t => return Err(VwError::Corruption(format!("unknown value part tag {t}"))),
    };
    Ok((data, nulls))
}

/// One column chunk decoded *preserving its on-disk encoding* where the
/// execution engine has a kernel for it — what every table scan reads.
/// Every string chunk comes back [`EncodedChunk::Dict`]; integer chunks
/// without an encoded kernel come back [`EncodedChunk::Flat`], identical
/// to [`decode_chunk`].
#[derive(Debug, Clone)]
pub enum EncodedChunk {
    /// Fully inflated values (never strings).
    Flat(ColData, Option<Vec<bool>>),
    /// Strings kept as codes over a shared string arena: a PDICT block's
    /// dictionary (`distinct`), or a raw block's rows with codes
    /// `0..n`. The arena is decoded once per pack and shared by `Arc`
    /// with every batch sliced from it.
    Dict { codes: Vec<u32>, dict: Arc<StrArena>, nulls: Option<Vec<bool>> },
    /// RLE integers: fully inflated values *plus* the run list, so
    /// predicates can accept/reject whole runs while everything downstream
    /// still sees flat data.
    Rle { data: ColData, runs: Vec<(i64, u32)>, nulls: Option<Vec<bool>> },
}

impl EncodedChunk {
    /// Inflate to the flat `(data, nulls)` pair [`decode_chunk`] returns.
    pub fn into_flat(self) -> Result<(ColData, Option<Vec<bool>>)> {
        match self {
            EncodedChunk::Flat(data, nulls) => Ok((data, nulls)),
            EncodedChunk::Rle { data, nulls, .. } => Ok((data, nulls)),
            EncodedChunk::Dict { codes, dict, nulls } => {
                let mut out = Vec::with_capacity(codes.len());
                materialize_codes(&codes, &dict, &mut out);
                Ok((ColData::Str(out), nulls))
            }
        }
    }
}

/// Like [`decode_chunk`], but string blocks come back as codes over a
/// shared arena and RLE integer blocks carry their run list. Decoding
/// the same bytes through [`decode_chunk`] yields exactly
/// `EncodedChunk::into_flat` — the two paths are differential-tested.
pub fn decode_chunk_encoded(bytes: &[u8], ty: TypeId, n: usize) -> Result<EncodedChunk> {
    let mut r = ByteReader::new(bytes);
    let nulls = get_nulls(&mut r, n)?;
    match r.get_u8()? {
        0 => {
            let c = get_ints(&mut r, n, "value block")?;
            let data = c.decode_as(ty)?;
            // Per-run predicate evaluation compares the widened i64 run
            // value, so any integer-like type qualifies; the run list only
            // pays off when runs are long, so thin run lists are dropped.
            if c.encoding == Encoding::Rle {
                let runs = rle::decode_runs(&mut ByteReader::new(c.bytes), c.len)?;
                if runs.len() * 4 <= n {
                    return Ok(EncodedChunk::Rle { data, runs, nulls });
                }
            }
            Ok(EncodedChunk::Flat(data, nulls))
        }
        1 => {
            expect_str(ty)?;
            let (codes, dict) = get_strings(&mut r, n)?;
            Ok(EncodedChunk::Dict { codes, dict: Arc::new(dict), nulls })
        }
        t => Err(VwError::Corruption(format!("unknown value part tag {t}"))),
    }
}

/// Serialize one multi-column spill batch: a row-count header followed by
/// one [`encode_chunk`]-format chunk per column, its integer blocks
/// encoded by a single pass (frame of reference or raw; strings as in a
/// pack). This is the on-disk unit
/// of the grace-spilling hash operators (`vw-exec::spill`) — the same
/// compressed block format the pack writer uses, so spilled build/probe
/// rows ride the existing codecs.
///
/// All columns must have the same length.
pub fn encode_spill_batch(cols: &[(&ColData, Option<&[bool]>)]) -> Vec<u8> {
    let rows = cols.first().map_or(0, |(d, _)| d.len());
    debug_assert!(cols.iter().all(|(d, _)| d.len() == rows));
    // The chunk format carries u32 lengths; a silent wrap would corrupt
    // the spill run, so oversized chunks fail loudly instead. (Spilled
    // runs are bounded by the memory budget per flush, so hitting this
    // means a >4 GiB single flush — re-chunk at the caller.)
    assert!(rows <= u32::MAX as usize, "spill batch exceeds u32 rows");
    let mut w = ByteWriter::new();
    w.put_u32(cols.len() as u32);
    w.put_u32(rows as u32);
    for (data, nulls) in cols {
        let chunk = encode_chunk_with(data, 0..rows, *nulls, compress_spill);
        assert!(
            chunk.len() <= u32::MAX as usize,
            "spill column chunk exceeds the 4 GiB block format limit"
        );
        w.put_u32(chunk.len() as u32);
        w.put_bytes(&chunk);
    }
    w.into_bytes()
}

/// Deserialize a spill batch produced by [`encode_spill_batch`]. `types`
/// must match the encoded column count and types.
pub fn decode_spill_batch(
    bytes: &[u8],
    types: &[TypeId],
) -> Result<Vec<(ColData, Option<Vec<bool>>)>> {
    let mut r = ByteReader::new(bytes);
    let ncols = r.get_u32()? as usize;
    if ncols != types.len() {
        return Err(VwError::Corruption(format!(
            "spill batch has {ncols} columns, expected {}",
            types.len()
        )));
    }
    let rows = r.get_u32()? as usize;
    let mut out = Vec::with_capacity(ncols);
    for &ty in types {
        let nbytes = r.get_u32()? as usize;
        let chunk = r.get_bytes(nbytes)?;
        out.push(decode_chunk(chunk, ty, rows)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vw_common::Value;

    fn roundtrip(data: ColData, nulls: Option<Vec<bool>>) {
        let bytes = encode_chunk(&data, 0..data.len(), nulls.as_deref());
        let (out, out_nulls) = decode_chunk(&bytes, data.type_id(), data.len()).unwrap();
        assert_eq!(out, data);
        let had_nulls = nulls.map(|m| m.iter().any(|&b| b)).unwrap_or(false);
        assert_eq!(out_nulls.is_some(), had_nulls);
    }

    #[test]
    fn fixed_types_roundtrip() {
        roundtrip(ColData::I32((0..1000).collect()), None);
        roundtrip(ColData::I64((0..1000).map(|i| i * 1_000_000).collect()), None);
        roundtrip(ColData::I8((0..100).map(|i| (i % 7) as i8).collect()), None);
        roundtrip(ColData::Bool((0..100).map(|i| i % 3 == 0).collect()), None);
        roundtrip(ColData::Date((0..100).map(|i| 9000 + i).collect()), None);
        roundtrip(ColData::F64((0..100).map(|i| i as f64 * 0.25).collect()), None);
    }

    /// The read path this module had before decoding became one typed
    /// pass: widen everything to `i64`, then rebuild the column
    /// (`ColData::from_i64s`). Kept as the oracle.
    fn from_i64s(ty: TypeId, vals: &[i64]) -> Option<ColData> {
        fn narrow<T: TryFrom<i64>>(vals: &[i64]) -> Option<Vec<T>> {
            vals.iter().map(|&v| T::try_from(v).ok()).collect()
        }
        Some(match ty {
            TypeId::Bool => ColData::Bool(vals.iter().map(|&v| v != 0).collect()),
            TypeId::I8 => ColData::I8(narrow(vals)?),
            TypeId::I16 => ColData::I16(narrow(vals)?),
            TypeId::I32 => ColData::I32(narrow(vals)?),
            TypeId::I64 => ColData::I64(vals.to_vec()),
            TypeId::F64 => ColData::F64(vals.iter().map(|&v| f64::from_bits(v as u64)).collect()),
            TypeId::Date => ColData::Date(narrow(vals)?),
            TypeId::Str => return None,
        })
    }

    /// A value-part-only chunk holding `values` under `encoding`.
    fn ints_chunk(values: &[i64], encoding: Encoding) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u8(0); // no NULLs
        w.put_u8(0); // fixed-width value part
        put_ints(&vw_compress::compress_with(values, encoding).unwrap(), &mut w);
        w.into_bytes()
    }

    const FIXED: [(TypeId, i64, i64); 7] = [
        (TypeId::Bool, 0, 1),
        (TypeId::I8, i8::MIN as i64, i8::MAX as i64),
        (TypeId::I16, i16::MIN as i64, i16::MAX as i64),
        (TypeId::I32, i32::MIN as i64, i32::MAX as i64),
        (TypeId::I64, i64::MIN, i64::MAX),
        (TypeId::F64, i64::MIN, i64::MAX),
        (TypeId::Date, i32::MIN as i64, i32::MAX as i64),
    ];
    const ENCODINGS: [Encoding; 6] = [
        Encoding::Raw,
        Encoding::BitPack,
        Encoding::Pfor,
        Encoding::PforDelta,
        Encoding::Dict,
        Encoding::Rle,
    ];

    #[test]
    fn every_type_and_encoding_decodes_like_the_widen_then_narrow_chain() {
        let mut st = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            st ^= st << 13;
            st ^= st >> 7;
            st ^= st << 17;
            st
        };
        for (ty, lo, hi) in FIXED {
            let span = (hi as i128 - lo as i128 + 1) as u128;
            for n in [0usize, 1, 63, 64, 65, 1024, 16384] {
                let mut any = || (lo as i128 + (next() as u128 % span) as i128) as i64;
                let constant = vec![any(); n];
                let mut sorted: Vec<i64> = (0..n).map(|_| any()).collect();
                sorted.sort_unstable();
                let mut full: Vec<i64> = (0..n).map(|_| any()).collect();
                if n >= 2 {
                    (full[0], full[n - 1]) = (lo, hi);
                }
                let near = (hi as i128 - lo as i128).min(100) as i64;
                let outliers: Vec<i64> = (0..n)
                    .map(|i| {
                        if i % 33 == 7 {
                            any()
                        } else {
                            lo + (any().unsigned_abs() % (near as u64 + 1)) as i64
                        }
                    })
                    .collect();
                for values in [constant, sorted, full, outliers] {
                    let want = from_i64s(ty, &values).unwrap();
                    for enc in ENCODINGS {
                        if enc == Encoding::Dict
                            && vw_compress::compress_with(&values, enc).is_err()
                        {
                            continue; // cardinality above the PDICT limit
                        }
                        let bytes = ints_chunk(&values, enc);
                        let (got, nulls) = decode_chunk(&bytes, ty, n).unwrap();
                        assert!(nulls.is_none());
                        // Doubles compare by bits: NaN payloads must survive.
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        got.to_i64s(0..n, &mut a);
                        want.to_i64s(0..n, &mut b);
                        assert_eq!(got.type_id(), ty);
                        assert_eq!(a, b, "{} {} n={n}", ty.sql_name(), enc.name());
                        let enc_chunk = decode_chunk_encoded(&bytes, ty, n).unwrap();
                        let (flat, _) = enc_chunk.into_flat().unwrap();
                        flat.to_i64s(0..n, &mut a);
                        assert_eq!(a, b, "encoded {} {} n={n}", ty.sql_name(), enc.name());
                    }
                }
            }
        }
    }

    #[test]
    fn narrowing_overflow_is_corruption_not_truncation() {
        // A BIGINT-range value in a chunk read as INT / DATE / SMALLINT.
        let mut values: Vec<i64> = (0..200).collect();
        values[77] = i32::MAX as i64 + 1;
        for enc in ENCODINGS {
            let bytes = ints_chunk(&values, enc);
            assert!(decode_chunk(&bytes, TypeId::I64, 200).is_ok());
            for ty in [TypeId::I32, TypeId::Date, TypeId::I16, TypeId::I8] {
                assert!(from_i64s(ty, &values).is_none());
                for r in [
                    decode_chunk(&bytes, ty, 200).map(|_| ()),
                    decode_chunk_encoded(&bytes, ty, 200).map(|_| ()),
                ] {
                    assert!(matches!(r, Err(VwError::Corruption(_))), "{} {}", enc.name(), ty);
                }
            }
            assert!(matches!(decode_chunk(&bytes, TypeId::Str, 200), Err(VwError::Corruption(_))));
        }
    }

    #[test]
    fn every_truncation_of_a_chunk_is_corruption() {
        let data = ColData::I32((0..300).map(|i| i * 3 % 97).collect());
        let mask: Vec<bool> = (0..300).map(|i| i % 10 == 0).collect();
        let bytes = encode_chunk(&data, 0..data.len(), Some(&mask));
        for cut in 0..bytes.len() {
            for r in [
                decode_chunk(&bytes[..cut], TypeId::I32, 300).map(|_| ()),
                decode_chunk_encoded(&bytes[..cut], TypeId::I32, 300).map(|_| ()),
            ] {
                assert!(matches!(r, Err(VwError::Corruption(_))), "cut {cut}");
            }
        }
    }

    #[test]
    fn nulls_roundtrip() {
        let data = ColData::I32((0..100).collect());
        let mask: Vec<bool> = (0..100).map(|i| i % 10 == 0).collect();
        let bytes = encode_chunk(&data, 0..data.len(), Some(&mask));
        let (_, out_nulls) = decode_chunk(&bytes, TypeId::I32, 100).unwrap();
        assert_eq!(out_nulls.unwrap(), mask);
    }

    #[test]
    fn all_false_null_mask_is_elided() {
        let data = ColData::I32(vec![1, 2, 3]);
        let mask = vec![false, false, false];
        let bytes = encode_chunk(&data, 0..data.len(), Some(&mask));
        let (_, out_nulls) = decode_chunk(&bytes, TypeId::I32, 3).unwrap();
        assert!(out_nulls.is_none());
    }

    #[test]
    fn low_cardinality_strings_use_dict() {
        let values: Vec<String> = (0..1000).map(|i| ["A", "N", "R"][i % 3].into()).collect();
        let data = ColData::Str(values);
        let bytes = encode_chunk(&data, 0..data.len(), None);
        assert!(bytes.len() < 1000, "dict should shrink 1000 flags to ~250 bytes");
        roundtrip(data, None);
    }

    #[test]
    fn unique_strings_stay_raw() {
        let values: Vec<String> = (0..200).map(|i| format!("customer#{i:09}")).collect();
        roundtrip(ColData::Str(values), None);
    }

    #[test]
    fn empty_chunk() {
        for ty in [TypeId::I32, TypeId::Str, TypeId::F64] {
            let data = ColData::new(ty);
            roundtrip(data, None);
        }
    }

    #[test]
    fn unicode_strings_roundtrip() {
        let values = vec!["héllo".to_string(), "мир".into(), "日本".into(), String::new()];
        roundtrip(ColData::Str(values), None);
    }

    #[test]
    fn corrupted_chunk_detected() {
        let data = ColData::I32((0..50).collect());
        let mut bytes = encode_chunk(&data, 0..data.len(), None);
        bytes.truncate(bytes.len() / 2);
        assert!(decode_chunk(&bytes, TypeId::I32, 50).is_err());
    }

    #[test]
    fn wrong_row_count_detected() {
        let data = ColData::I32((0..50).collect());
        let bytes = encode_chunk(&data, 0..data.len(), None);
        assert!(decode_chunk(&bytes, TypeId::I32, 51).is_err());
    }

    #[test]
    fn spill_batch_roundtrips_multiple_columns() {
        let a = ColData::I64((0..100).collect());
        let b = ColData::Str((0..100).map(|i| format!("s{}", i % 7)).collect());
        let b_nulls: Vec<bool> = (0..100).map(|i| i % 9 == 0).collect();
        let bytes = encode_spill_batch(&[(&a, None), (&b, Some(&b_nulls))]);
        let cols = decode_spill_batch(&bytes, &[TypeId::I64, TypeId::Str]).unwrap();
        assert_eq!(cols.len(), 2);
        assert_eq!(cols[0].0, a);
        assert!(cols[0].1.is_none());
        assert_eq!(cols[1].0, b);
        assert_eq!(cols[1].1.as_deref(), Some(&b_nulls[..]));
    }

    #[test]
    fn spill_batches_of_every_column_type_roundtrip() {
        // Each type at 2 048 rows: a constant column, a narrow frame, the
        // type's extremes (a frame too wide to pack), and NULLs.
        let n = 2048usize;
        let mix = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cases: Vec<ColData> = vec![
            ColData::Bool((0..n).map(|i| mix(i) % 3 == 0).collect()),
            ColData::I8((0..n).map(|i| mix(i) as i8).collect()),
            ColData::I16((0..n).map(|i| 7 + (mix(i) % 40) as i16).collect()),
            ColData::I32((0..n).map(|i| mix(i) as i32).collect()),
            ColData::I64(vec![-5; n]),
            ColData::I64((0..n).map(|i| 1_000_000 + (mix(i) % 5000) as i64).collect()),
            ColData::I64((0..n).map(|i| [i64::MIN, i64::MAX, 0][i % 3]).collect()),
            ColData::F64((0..n).map(|i| f64::from_bits(mix(i))).collect()),
            ColData::F64((0..n).map(|i| [0.5, -0.0, f64::INFINITY, 3.25][i % 4]).collect()),
            ColData::Date((0..n).map(|i| 9000 + (i % 400) as i32).collect()),
            ColData::Str((0..n).map(|i| format!("v{}", mix(i) % 97)).collect()),
            ColData::Str((0..n).map(|i| format!("{:x}-é", mix(i))).collect()),
        ];
        for data in &cases {
            let ty = data.type_id();
            let nulls: Vec<bool> = (0..n).map(|i| mix(i + 1) % 5 == 0).collect();
            for m in [None, Some(&nulls[..])] {
                let bytes = encode_spill_batch(&[(data, m)]);
                let cols = decode_spill_batch(&bytes, &[ty]).unwrap();
                // NaN payloads compare by bits, like the spilled values.
                let bits = |d: &ColData| match d {
                    ColData::F64(v) => v.iter().map(|x| x.to_bits() as i64).collect(),
                    d => {
                        let mut out = Vec::new();
                        if ty != TypeId::Str {
                            d.to_i64s(0..d.len(), &mut out);
                        }
                        out
                    }
                };
                assert_eq!(bits(&cols[0].0), bits(data), "{ty:?}");
                if ty == TypeId::Str {
                    assert_eq!(&cols[0].0, data);
                }
                assert_eq!(cols[0].1.as_deref(), m, "{ty:?} NULLs");
            }
        }
    }

    #[test]
    fn spill_integers_skip_the_analysis_and_tables_keep_it() {
        // A frame of 12 bits is packed; random 64-bit patterns stay raw.
        let narrow = ColData::I64((0..2048).map(|i| 40_000 + (i * 7919) % 4096).collect());
        let wide = ColData::I64(
            (0..2048u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) as i64).collect(),
        );
        let value_tag = |bytes: &[u8]| {
            // batch header (8), chunk length (4), no NULLs (1), ints (1).
            Encoding::from_tag(bytes[14]).unwrap()
        };
        assert_eq!(value_tag(&encode_spill_batch(&[(&narrow, None)])), Encoding::BitPack);
        assert_eq!(value_tag(&encode_spill_batch(&[(&wide, None)])), Encoding::Raw);
        // A table pack still picks by analysis (a dense run compresses by
        // PFOR-DELTA there), and spilling does not change it.
        let sorted = ColData::I64((0..2048).collect());
        let pack = encode_chunk(&sorted, 0..2048, None);
        assert_ne!(Encoding::from_tag(pack[2]).unwrap(), Encoding::BitPack);
    }

    #[test]
    fn spill_batch_empty_and_corrupt() {
        let a = ColData::new(TypeId::I64);
        let bytes = encode_spill_batch(&[(&a, None)]);
        let cols = decode_spill_batch(&bytes, &[TypeId::I64]).unwrap();
        assert_eq!(cols[0].0.len(), 0);
        // Wrong arity is detected, not misread.
        assert!(decode_spill_batch(&bytes, &[TypeId::I64, TypeId::I64]).is_err());
        let mut broken = encode_spill_batch(&[(&ColData::I64(vec![1, 2, 3]), None)]);
        broken.truncate(broken.len() / 2);
        assert!(decode_spill_batch(&broken, &[TypeId::I64]).is_err());
    }

    #[test]
    fn encoded_decode_matches_flat_decode() {
        // Dict strings, raw strings, RLE ints, plain ints, with and
        // without NULLs: the encoded path must inflate to byte-identical
        // flat data.
        let cases: Vec<(ColData, Option<Vec<bool>>)> = vec![
            (ColData::Str((0..1000).map(|i| ["A", "N", "R"][i % 3].into()).collect()), None),
            (
                ColData::Str((0..300).map(|i| ["X", "Y"][i % 2].into()).collect()),
                Some((0..300).map(|i| i % 11 == 0).collect()),
            ),
            (ColData::Str((0..200).map(|i| format!("cust#{i:06}")).collect()), None),
            (ColData::I64(vec![7; 2000]), None),
            (ColData::I64((0..500).collect()), Some((0..500).map(|i| i % 13 == 0).collect())),
            (ColData::I32((0..100).map(|i| i / 25).collect()), None),
        ];
        for (data, nulls) in cases {
            let bytes = encode_chunk(&data, 0..data.len(), nulls.as_deref());
            let flat = decode_chunk(&bytes, data.type_id(), data.len()).unwrap();
            let enc = decode_chunk_encoded(&bytes, data.type_id(), data.len()).unwrap();
            assert_eq!(enc.into_flat().unwrap(), flat);
        }
    }

    #[test]
    fn encoded_decode_preserves_encodings() {
        let dict_strs = ColData::Str((0..1000).map(|i| ["A", "N", "R"][i % 3].into()).collect());
        let bytes = encode_chunk(&dict_strs, 0..dict_strs.len(), None);
        match decode_chunk_encoded(&bytes, TypeId::Str, 1000).unwrap() {
            EncodedChunk::Dict { codes, dict, nulls } => {
                assert_eq!(codes.len(), 1000);
                assert_eq!(dict.iter().collect::<Vec<_>>(), ["A", "N", "R"]);
                assert!(dict.distinct());
                assert!(nulls.is_none());
            }
            other => panic!("expected dict chunk, got {other:?}"),
        }
        // A raw block comes back coded too: its rows are the arena, the
        // codes their positions.
        let names = ColData::Str((0..200).map(|i| format!("customer#{i:09}")).collect());
        let bytes = encode_chunk(&names, 0..names.len(), None);
        assert_eq!(bytes[2], 2, "unique strings are stored raw");
        match decode_chunk_encoded(&bytes, TypeId::Str, 200).unwrap() {
            EncodedChunk::Dict { codes, dict, .. } => {
                assert!(!dict.distinct());
                assert_eq!(codes, (0..200).collect::<Vec<u32>>());
                assert_eq!(&dict[7], "customer#000000007");
            }
            other => panic!("expected an arena chunk, got {other:?}"),
        }
        // Long runs of wide, non-monotonic values: PFOR needs ~40 bits per
        // value and PFOR-DELTA's sorted gate fails, so the chooser picks RLE.
        let mut vals = Vec::new();
        for i in 0..20i64 {
            let v = if i % 2 == 0 { 1_000_000_000_000 + i } else { i };
            vals.extend(std::iter::repeat_n(v, 250));
        }
        let rle_ints = ColData::I64(vals);
        let bytes = encode_chunk(&rle_ints, 0..rle_ints.len(), None);
        match decode_chunk_encoded(&bytes, TypeId::I64, 5000).unwrap() {
            EncodedChunk::Rle { data, runs, .. } => {
                assert_eq!(data.len(), 5000);
                assert_eq!(runs.len(), 20);
                assert_eq!(runs[0], (1_000_000_000_000, 250));
            }
            other => panic!("expected rle chunk, got {other:?}"),
        }
    }

    /// `bytes` with the first occurrence of `from` overwritten by `to`.
    fn patched(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
        let at = bytes.windows(from.len()).position(|w| w == from).expect("pattern in block");
        let mut out = bytes.to_vec();
        out[at..at + to.len()].copy_from_slice(to);
        out
    }

    #[test]
    fn invalid_utf8_in_a_string_block_is_corruption() {
        let raw = ColData::Str((0..50).map(|i| format!("row-{i:04}-é")).collect());
        let dict = ColData::Str((0..500).map(|i| ["ab-é", "cd"][i % 2].into()).collect());
        for (data, tag) in [(raw, 2u8), (dict, 1)] {
            let bytes = encode_chunk(&data, 0..data.len(), None);
            assert_eq!(bytes[2], tag);
            // Break the two-byte 'é' of an entry: a lone continuation byte.
            let bad = patched(&bytes, "é".as_bytes(), &[0x80, 0x80]);
            let n = data.len();
            for r in [
                decode_chunk(&bad, TypeId::Str, n).map(|_| ()),
                decode_chunk_encoded(&bad, TypeId::Str, n).map(|_| ()),
            ] {
                assert!(
                    matches!(&r, Err(VwError::Corruption(m)) if m.contains("invalid UTF-8")),
                    "tag {tag}: {r:?}"
                );
            }
        }
    }

    /// The string writer this module had before it chose from the
    /// distinct set: build and sort the full dictionary, then choose.
    /// Kept as the oracle.
    fn put_strings_reference(values: &[String], w: &mut ByteWriter) {
        let sd = vw_compress::dict::encode_strings(values);
        let raw_size: usize = values.iter().map(|s| s.len() + 4).sum();
        if sd.compressed_bytes() * 2 < raw_size {
            w.put_u8(1);
            w.put_u32(sd.dict.len() as u32);
            for s in &sd.dict {
                w.put_u32(s.len() as u32);
                w.put_bytes(s.as_bytes());
            }
            w.put_u32(sd.bytes.len() as u32);
            w.put_bytes(&sd.bytes);
        } else {
            w.put_u8(2);
            w.put_u32(values.len() as u32);
            for s in values {
                w.put_u32(s.len() as u32);
                w.put_bytes(s.as_bytes());
            }
        }
    }

    #[test]
    fn choosing_before_sorting_writes_the_same_bytes() {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut raw, mut dict) = (0, 0);
        for len in [0usize, 1, 2, 100, 1024, 16 * 1024] {
            // Cardinalities on both sides of the choice, short and long
            // values, repeats in random order.
            for distinct in [1u64, 2, 17, 300, 4000, u64::MAX] {
                for width in [1usize, 6, 40] {
                    let values: Vec<String> = (0..len)
                        .map(|_| {
                            let r = next() % distinct;
                            format!("{r:0>width$}")
                        })
                        .collect();
                    let (mut got, mut want) = (ByteWriter::new(), ByteWriter::new());
                    put_strings(&values, &mut got);
                    put_strings_reference(&values, &mut want);
                    let (got, want) = (got.into_bytes(), want.into_bytes());
                    assert_eq!(got, want, "len {len} distinct {distinct} width {width}");
                    match got.first() {
                        Some(1) => dict += 1,
                        _ => raw += 1,
                    }
                }
            }
        }
        assert!(raw > 10 && dict > 10, "both choices exercised: {raw} raw, {dict} PDICT");
    }

    #[test]
    fn values_under_null_positions_are_safe() {
        let mut data = ColData::new(TypeId::I64);
        data.push_value(&Value::I64(5)).unwrap();
        data.push_value(&Value::Null).unwrap();
        let mask = vec![false, true];
        let bytes = encode_chunk(&data, 0..data.len(), Some(&mask));
        let (out, _) = decode_chunk(&bytes, TypeId::I64, 2).unwrap();
        assert_eq!(out.get_value(1), Value::I64(0));
    }
}
