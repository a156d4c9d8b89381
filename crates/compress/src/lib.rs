//! # vw-compress — super-scalar RAM-CPU cache compression
//!
//! Reproduction of the light-weight compression schemes of
//! *Super-Scalar RAM-CPU Cache Compression* (Zukowski, Héman, Nes, Boncz,
//! ICDE 2006) — reference \[8\] of the Vectorwise paper. These schemes trade
//! compression ratio for *decompression speed*: decoding must run at a rate
//! comparable to RAM bandwidth so that compressed disk/RAM pages can be
//! expanded into CPU-cache-resident vectors on the fly.
//!
//! Implemented schemes:
//!
//! * [`bitpack`] — fixed-width bit packing against a frame-of-reference base,
//! * [`pfor`] — **PFOR** (Patched Frame-Of-Reference): bit packing where
//!   outliers ("exceptions") are patched in after decoding, so the bit width
//!   can be chosen for the *common* values instead of the extremes,
//! * [`pfor`] — **PFOR-DELTA**: PFOR over successive differences, the scheme
//!   of choice for sorted or clustered data,
//! * [`dict`] — **PDICT**: dictionary encoding with packed codes, for
//!   low-cardinality integer and string columns,
//! * [`rle`] — run-length encoding, for long constant runs.
//!
//! [`compress_auto`] mirrors Vectorwise's per-block scheme selection: it
//! inspects the data and picks the cheapest encoding by estimated size.
//!
//! All integer codecs *encode* `i64` (the storage layer widens narrower
//! column types first); deltas and frame subtraction use wrapping `u64`
//! arithmetic, so the full `i64` domain round-trips exactly. *Decoding* is
//! generic over the destination [`Lane`]: [`decompress`] writes a block's
//! values straight into a `Vec` of the column's own type — one pass from
//! block bytes to typed column, see [`bitpack`] — and [`decompress_into`]
//! is its `i64` instantiation.

pub mod bitpack;
pub mod dict;
pub mod io;
pub mod pfor;
pub mod rle;

use crate::io::{ByteReader, ByteWriter};
use vw_common::{Result, VwError};

/// Identifies the scheme used for a compressed block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// Uncompressed little-endian values.
    Raw,
    /// Frame-of-reference + fixed-width bit packing.
    BitPack,
    /// Patched frame-of-reference.
    Pfor,
    /// PFOR over deltas of consecutive values.
    PforDelta,
    /// Dictionary coding with packed codes.
    Dict,
    /// Run-length encoding.
    Rle,
}

impl Encoding {
    /// Stable on-disk tag.
    pub fn tag(self) -> u8 {
        match self {
            Encoding::Raw => 0,
            Encoding::BitPack => 1,
            Encoding::Pfor => 2,
            Encoding::PforDelta => 3,
            Encoding::Dict => 4,
            Encoding::Rle => 5,
        }
    }

    /// Inverse of [`Encoding::tag`].
    pub fn from_tag(t: u8) -> Result<Encoding> {
        Ok(match t {
            0 => Encoding::Raw,
            1 => Encoding::BitPack,
            2 => Encoding::Pfor,
            3 => Encoding::PforDelta,
            4 => Encoding::Dict,
            5 => Encoding::Rle,
            _ => return Err(VwError::Corruption(format!("unknown encoding tag {t}"))),
        })
    }

    /// Human-readable name (bench output, EXPLAIN).
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Raw => "RAW",
            Encoding::BitPack => "BITPACK",
            Encoding::Pfor => "PFOR",
            Encoding::PforDelta => "PFOR-DELTA",
            Encoding::Dict => "PDICT",
            Encoding::Rle => "RLE",
        }
    }
}

/// A compressed block of `i64` values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Compressed {
    /// Scheme used.
    pub encoding: Encoding,
    /// Number of values encoded.
    pub len: usize,
    /// Encoded payload (scheme-specific layout).
    pub bytes: Vec<u8>,
}

impl Compressed {
    /// Compression ratio = uncompressed bytes / compressed bytes.
    pub fn ratio(&self) -> f64 {
        if self.bytes.is_empty() {
            return 1.0;
        }
        (self.len * 8) as f64 / self.bytes.len() as f64
    }
}

/// Compress `values` with an explicitly chosen scheme.
///
/// Returns an error only for schemes with applicability limits
/// (e.g. [`Encoding::Dict`] refuses cardinality > 4096 per block).
pub fn compress_with(values: &[i64], encoding: Encoding) -> Result<Compressed> {
    let mut w = ByteWriter::new();
    match encoding {
        Encoding::Raw => {
            for &v in values {
                w.put_u64(v as u64);
            }
        }
        Encoding::BitPack => bitpack::encode_for(values, &mut w),
        Encoding::Pfor => pfor::encode_pfor(values, &mut w),
        Encoding::PforDelta => pfor::encode_pfor_delta(values, &mut w),
        Encoding::Dict => dict::encode_i64(values, &mut w)?,
        Encoding::Rle => rle::encode(values, &mut w),
    }
    Ok(Compressed { encoding, len: values.len(), bytes: w.into_bytes() })
}

/// A fixed-width destination type the codecs decode straight into. The
/// codecs store every value widened to `i64`; a lane is the inverse of
/// that widening, applied as each block leaves the unpack kernel.
pub trait Lane: Copy + Default {
    /// SQL-facing name for the out-of-range error.
    const NAME: &'static str;
    /// The lane holding widened value `v` (the `i64`'s bits), truncating.
    fn cast(v: u64) -> Self;
    /// Is `v` inside the type's range (is [`Lane::cast`] lossless)?
    fn fits(v: u64) -> bool;
}

macro_rules! lane {
    ($($t:ty, $name:literal, $v:ident => $cast:expr, $fits:expr;)*) => {$(
        impl Lane for $t {
            const NAME: &'static str = $name;
            #[inline(always)]
            fn cast($v: u64) -> $t {
                $cast
            }
            #[inline(always)]
            fn fits($v: u64) -> bool {
                $fits
            }
        }
    )*};
}
lane! {
    i8, "TINYINT", v => v as i8, v as i8 as i64 == v as i64;
    i16, "SMALLINT", v => v as i16, v as i16 as i64 == v as i64;
    i32, "INT", v => v as i32, v as i32 as i64 == v as i64;
    i64, "BIGINT", v => v as i64, { let _ = v; true };
    u32, "dictionary code", v => v as u32, v <= u32::MAX as u64;
    bool, "BOOLEAN", v => v != 0, { let _ = v; true };
    f64, "DOUBLE", v => f64::from_bits(v), { let _ = v; true };
}

/// Append `values` to `out` as `T` lanes. Two passes over a slice that is
/// a stack-resident block: a store loop and a pure range reduction, so
/// neither carries state from value to value. `Corruption` when a value
/// does not fit `T`.
#[inline]
pub(crate) fn emit<T: Lane>(values: &[u64], out: &mut Vec<T>) -> Result<()> {
    emit_all(values.iter().copied(), out)
}

/// [`emit`] for uncompressed little-endian words (a RAW payload, a PDICT
/// dictionary); trailing bytes short of a word are not the caller's.
pub(crate) fn emit_words<T: Lane>(words: &[u8], out: &mut Vec<T>) -> Result<()> {
    // Infallible: chunks_exact(8) yields 8-byte windows.
    emit_all(words.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())), out)
}

#[inline]
fn emit_all<T: Lane>(values: impl Iterator<Item = u64> + Clone, out: &mut Vec<T>) -> Result<()> {
    out.extend(values.clone().map(T::cast));
    // Compiles to nothing for the full-width lanes.
    if values.fold(true, |ok, v| ok & T::fits(v)) {
        Ok(())
    } else {
        Err(VwError::Corruption(format!("decoded value out of range for {}", T::NAME)))
    }
}

/// Decompress `len` values of `encoding` from `bytes` into `out` (cleared
/// first; its capacity is reused, keeping steady-state decompression
/// allocation-free). Corrupt input — truncated payload, a width above 64,
/// an exception position or dictionary code out of range, a value that
/// does not fit `T` — is a typed `Corruption`, never a panic.
pub fn decompress<T: Lane>(
    encoding: Encoding,
    len: usize,
    bytes: &[u8],
    out: &mut Vec<T>,
) -> Result<()> {
    out.clear();
    out.reserve(len);
    let mut r = ByteReader::new(bytes);
    match encoding {
        Encoding::Raw => emit_words(r.get_bytes(len.saturating_mul(8))?, out)?,
        Encoding::BitPack => bitpack::decode_for(&mut r, len, out)?,
        Encoding::Pfor => pfor::decode_pfor(&mut r, len, out)?,
        Encoding::PforDelta => pfor::decode_pfor_delta(&mut r, len, out)?,
        Encoding::Dict => dict::decode_i64(&mut r, len, out)?,
        Encoding::Rle => rle::decode(&mut r, len, out)?,
    }
    if out.len() != len {
        return Err(VwError::Corruption(format!("decoded {} values, expected {}", out.len(), len)));
    }
    Ok(())
}

/// [`decompress`] of a [`Compressed`] block into `i64`s.
pub fn decompress_into(c: &Compressed, out: &mut Vec<i64>) -> Result<()> {
    decompress(c.encoding, c.len, &c.bytes, out)
}

/// Lightweight statistics driving automatic scheme choice.
#[derive(Debug, Clone, Copy)]
pub struct BlockStats {
    /// Number of values.
    pub n: usize,
    /// Number of (value, next) pairs that are non-decreasing.
    pub sorted_pairs: usize,
    /// Number of runs (maximal segments of equal values).
    pub runs: usize,
    /// Distinct-count estimate, capped at `DICT_PROBE_LIMIT + 1`.
    pub distinct_cap: usize,
}

const DICT_PROBE_LIMIT: usize = 4096;

/// Scan `values` once and collect the statistics used by [`choose_encoding`].
pub fn analyze(values: &[i64]) -> BlockStats {
    let mut sorted_pairs = 0usize;
    let mut runs = if values.is_empty() { 0 } else { 1 };
    let mut distinct = vw_common::hash::FxHashSet::default();
    for w in values.windows(2) {
        if w[0] <= w[1] {
            sorted_pairs += 1;
        }
        if w[0] != w[1] {
            runs += 1;
        }
    }
    let mut overflowed = false;
    for &v in values {
        // Mixed, because `f64` bits of whole numbers end in zeros (see
        // `FxHasher`); a bijection, so the count is the same.
        distinct.insert(vw_common::hash::hash_u64(v as u64));
        if distinct.len() > DICT_PROBE_LIMIT {
            overflowed = true;
            break;
        }
    }
    BlockStats {
        n: values.len(),
        sorted_pairs,
        runs,
        distinct_cap: if overflowed { DICT_PROBE_LIMIT + 1 } else { distinct.len() },
    }
}

/// Pick an encoding for this block the way Vectorwise does: estimate the
/// encoded size of each applicable scheme and take the smallest, with RAW as
/// the fallback when nothing compresses.
pub fn choose_encoding(values: &[i64]) -> Encoding {
    if values.len() < 16 {
        return Encoding::Raw;
    }
    let stats = analyze(values);
    let n = stats.n as f64;
    let mut best = (Encoding::Raw, n * 8.0);
    // RLE: each run costs 12 bytes.
    let rle_cost = stats.runs as f64 * 12.0 + 8.0;
    if rle_cost < best.1 {
        best = (Encoding::Rle, rle_cost);
    }
    // PDICT: dictionary entries + code bits.
    if stats.distinct_cap <= DICT_PROBE_LIMIT {
        let code_bits = bits_for(stats.distinct_cap.max(1) as u64 - 1).max(1) as f64;
        let dict_cost = stats.distinct_cap as f64 * 8.0 + n * code_bits / 8.0 + 16.0;
        if dict_cost < best.1 {
            best = (Encoding::Dict, dict_cost);
        }
    }
    // PFOR: cost from the actual width histogram.
    let pfor_cost = pfor::estimate_bytes(values) as f64;
    if pfor_cost < best.1 {
        best = (Encoding::Pfor, pfor_cost);
    }
    // PFOR-DELTA: only meaningfully sorted data benefits; estimate on deltas.
    if stats.sorted_pairs * 10 >= (stats.n.saturating_sub(1)) * 9 {
        let deltas: Vec<i64> = values.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
        let delta_cost = pfor::estimate_bytes(&deltas) as f64 + 8.0;
        if delta_cost < best.1 {
            best = (Encoding::PforDelta, delta_cost);
        }
    }
    best.0
}

/// Compress with the automatically chosen scheme.
pub fn compress_auto(values: &[i64]) -> Compressed {
    let enc = choose_encoding(values);
    match compress_with(values, enc) {
        Ok(c) => c,
        // Applicability limit hit after estimation (e.g. dict overflow on the
        // unsampled tail): fall back to RAW, which cannot fail.
        Err(_) => compress_with(values, Encoding::Raw).expect("raw cannot fail"),
    }
}

/// Number of bits needed to represent `v` (0 for 0).
#[inline]
pub fn bits_for(v: u64) -> u32 {
    64 - v.leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64], enc: Encoding) {
        let c = compress_with(values, enc).unwrap();
        let mut out = Vec::new();
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(out, values, "roundtrip failed for {:?}", enc);
    }

    #[test]
    fn all_schemes_roundtrip_simple() {
        let values: Vec<i64> = (0..1000).map(|i| (i % 97) - 40).collect();
        for enc in [
            Encoding::Raw,
            Encoding::BitPack,
            Encoding::Pfor,
            Encoding::PforDelta,
            Encoding::Dict,
            Encoding::Rle,
        ] {
            roundtrip(&values, enc);
        }
    }

    #[test]
    fn all_schemes_roundtrip_empty_and_single() {
        for enc in [
            Encoding::Raw,
            Encoding::BitPack,
            Encoding::Pfor,
            Encoding::PforDelta,
            Encoding::Dict,
            Encoding::Rle,
        ] {
            roundtrip(&[], enc);
            roundtrip(&[42], enc);
            roundtrip(&[i64::MIN, i64::MAX], enc);
        }
    }

    #[test]
    fn extreme_values_roundtrip() {
        let values = vec![i64::MIN, -1, 0, 1, i64::MAX, i64::MIN, i64::MAX];
        for enc in [Encoding::BitPack, Encoding::Pfor, Encoding::PforDelta, Encoding::Rle] {
            roundtrip(&values, enc);
        }
    }

    #[test]
    fn auto_compresses_constant_extremely() {
        // For a constant block PFOR with width 0 (13 bytes total) beats even
        // RLE (20 bytes); either way the ratio must be enormous.
        let values = vec![7i64; 10_000];
        let c = compress_auto(&values);
        assert!(c.ratio() > 1000.0, "ratio {}", c.ratio());
    }

    #[test]
    fn auto_picks_rle_for_long_runs_of_wide_values() {
        // 100 runs of 100 copies of irregular 60-bit values: PFOR needs
        // ~64 bits/value, PDICT ~7 bits/value, RLE 12 bytes/run.
        let mut values = Vec::new();
        for r in 0..100i64 {
            let v = r.wrapping_mul(0x9E3779B97F4A7C15u64 as i64);
            values.extend(std::iter::repeat_n(v, 100));
        }
        assert_eq!(choose_encoding(&values), Encoding::Rle);
        let c = compress_auto(&values);
        assert!(c.ratio() > 50.0, "ratio {}", c.ratio());
    }

    #[test]
    fn auto_picks_delta_for_sorted() {
        let values: Vec<i64> = (0..10_000).map(|i| 1_000_000_000 + i * 3).collect();
        let enc = choose_encoding(&values);
        assert_eq!(enc, Encoding::PforDelta);
        let c = compress_auto(&values);
        assert!(c.ratio() > 8.0, "ratio {}", c.ratio());
    }

    #[test]
    fn auto_picks_dict_for_low_cardinality_wide_values() {
        // Few distinct but huge-magnitude scattered values: dict beats pfor.
        let dict = [i64::MIN, 0, i64::MAX, 123_456_789_123];
        let values: Vec<i64> = (0..10_000).map(|i| dict[(i * 7) % 4]).collect();
        assert_eq!(choose_encoding(&values), Encoding::Dict);
    }

    #[test]
    fn auto_never_fails() {
        let values: Vec<i64> = (0..5000)
            .map(|i| ((i as i64).wrapping_mul(0x9E3779B97F4A7C15u64 as i64)) >> (i % 63))
            .collect();
        let c = compress_auto(&values);
        let mut out = Vec::new();
        decompress_into(&c, &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn tags_roundtrip() {
        for enc in [
            Encoding::Raw,
            Encoding::BitPack,
            Encoding::Pfor,
            Encoding::PforDelta,
            Encoding::Dict,
            Encoding::Rle,
        ] {
            assert_eq!(Encoding::from_tag(enc.tag()).unwrap(), enc);
        }
        assert!(Encoding::from_tag(99).is_err());
    }

    /// The decoder this crate had before decoding became one typed pass:
    /// per-value `unpack` into `Vec<u64>`, a residual/delta/code vector per
    /// codec, `i64` output (a narrowing pass followed in vw-storage). Kept
    /// as the oracle.
    mod oracle {
        use crate::io::ByteReader;
        use crate::Encoding;
        use vw_common::{Result, VwError};

        fn unpack(r: &mut ByteReader, n: usize, bits: u32, out: &mut Vec<u64>) -> Result<()> {
            if bits == 0 {
                out.resize(out.len() + n, 0);
                return Ok(());
            }
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let (mut acc, mut avail) = (0u64, 0u32);
            for _ in 0..n {
                let v = if avail >= bits {
                    let v = acc & mask;
                    acc >>= bits;
                    avail -= bits;
                    v
                } else {
                    let next = r.get_u64()?;
                    let v = (acc | (next << avail)) & mask;
                    let taken = bits - avail;
                    acc = if taken == 64 { 0 } else { next >> taken };
                    avail = 64 - taken;
                    v
                };
                out.push(v);
            }
            Ok(())
        }

        fn pfor(r: &mut ByteReader, n: usize, out: &mut Vec<i64>) -> Result<()> {
            if n == 0 {
                return Ok(());
            }
            let base = r.get_u64()?;
            let bits = r.get_u8()? as u32;
            let n_exc = r.get_u32()? as usize;
            if bits > 64 || n_exc > n {
                return Err(VwError::Corruption("pfor header".into()));
            }
            let start = out.len();
            let mut residuals = Vec::new();
            unpack(r, n, bits, &mut residuals)?;
            out.extend(residuals.iter().map(|&d| base.wrapping_add(d) as i64));
            let exc_pos = r.get_bytes(n_exc * 4)?;
            let exc_val = r.get_bytes(n_exc * 8)?;
            for i in 0..n_exc {
                let p = u32::from_le_bytes(exc_pos[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
                let v = u64::from_le_bytes(exc_val[i * 8..i * 8 + 8].try_into().unwrap());
                if p >= n {
                    return Err(VwError::Corruption("pfor exception position".into()));
                }
                out[start + p] = base.wrapping_add(v) as i64;
            }
            Ok(())
        }

        pub fn decode(enc: Encoding, n: usize, bytes: &[u8]) -> Result<Vec<i64>> {
            let mut r = ByteReader::new(bytes);
            let mut out = Vec::new();
            match enc {
                Encoding::Raw => {
                    for _ in 0..n {
                        out.push(r.get_u64()? as i64);
                    }
                }
                Encoding::BitPack if n > 0 => {
                    let base = r.get_u64()?;
                    let bits = r.get_u8()? as u32;
                    let mut residuals = Vec::new();
                    unpack(&mut r, n, bits.min(64), &mut residuals)?;
                    out.extend(residuals.iter().map(|&d| base.wrapping_add(d) as i64));
                }
                Encoding::BitPack => {}
                Encoding::Pfor => pfor(&mut r, n, &mut out)?,
                Encoding::PforDelta if n > 0 => {
                    let mut cur = r.get_u64()? as i64;
                    out.push(cur);
                    let mut deltas = Vec::new();
                    pfor(&mut r, n - 1, &mut deltas)?;
                    for d in deltas {
                        cur = cur.wrapping_add(d);
                        out.push(cur);
                    }
                }
                Encoding::PforDelta => {}
                Encoding::Dict => {
                    let dict_len = r.get_u32()? as usize;
                    if dict_len == 0 {
                        return if n == 0 {
                            Ok(out)
                        } else {
                            Err(VwError::Corruption("empty dictionary".into()))
                        };
                    }
                    let dict = (0..dict_len)
                        .map(|_| r.get_u64().map(|v| v as i64))
                        .collect::<Result<Vec<_>>>()?;
                    let bits = crate::bits_for(dict_len as u64 - 1).max(1);
                    let mut codes = Vec::new();
                    unpack(&mut r, n, bits, &mut codes)?;
                    for c in codes {
                        out.push(
                            *dict
                                .get(c as usize)
                                .ok_or_else(|| VwError::Corruption("dict code".into()))?,
                        );
                    }
                }
                Encoding::Rle => {
                    let n_runs = r.get_u32()? as usize;
                    for _ in 0..n_runs {
                        let v = r.get_u64()? as i64;
                        let l = r.get_u32()? as usize;
                        if out.len() + l > n {
                            return Err(VwError::Corruption("rle runs".into()));
                        }
                        out.resize(out.len() + l, v);
                    }
                }
            }
            if out.len() == n {
                Ok(out)
            } else {
                Err(VwError::Corruption("length".into()))
            }
        }
    }

    const ALL: [Encoding; 6] = [
        Encoding::Raw,
        Encoding::BitPack,
        Encoding::Pfor,
        Encoding::PforDelta,
        Encoding::Dict,
        Encoding::Rle,
    ];
    const LENGTHS: [usize; 7] = [0, 1, 63, 64, 65, 1024, 16384];

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// The four value shapes, confined to `lo..=hi` (a lane type's range).
    fn shapes(n: usize, lo: i64, hi: i64, seed: u64) -> Vec<Vec<i64>> {
        let mut st = seed | 1;
        let span = (hi as i128 - lo as i128 + 1) as u128;
        let any = |st: &mut u64| (lo as i128 + (xorshift(st) as u128 % span) as i128) as i64;
        let constant = vec![any(&mut st); n];
        let mut sorted: Vec<i64> = (0..n).map(|_| any(&mut st)).collect();
        sorted.sort_unstable();
        let mut full: Vec<i64> = (0..n).map(|_| any(&mut st)).collect();
        if n >= 2 {
            (full[0], full[n - 1]) = (lo, hi);
        }
        let small = (hi as i128 - lo as i128).min(100) as u64 + 1;
        let outliers: Vec<i64> =
            (0..n)
                .map(|i| {
                    if i % 33 == 7 {
                        any(&mut st)
                    } else {
                        lo + (xorshift(&mut st) % small) as i64
                    }
                })
                .collect();
        vec![constant, sorted, full, outliers]
    }

    /// Every encoding × length × shape decodes into `T` exactly as the old
    /// decoder followed by the narrowing pass `narrow` did (lanes compare
    /// through `key`: bits for doubles, so NaN payloads count).
    fn lane_matches_oracle<T: Lane, K: PartialEq + std::fmt::Debug>(
        (lo, hi): (i64, i64),
        narrow: impl Fn(i64) -> K,
        key: impl Fn(T) -> K,
    ) {
        for (li, &n) in LENGTHS.iter().enumerate() {
            for (si, values) in shapes(n, lo, hi, 0x9E37_79B9 + li as u64).iter().enumerate() {
                for enc in ALL {
                    let Ok(c) = compress_with(values, enc) else {
                        assert_eq!(enc, Encoding::Dict, "only PDICT may refuse a block");
                        continue;
                    };
                    let old = oracle::decode(enc, n, &c.bytes).unwrap();
                    assert_eq!(&old, values);
                    let mut got: Vec<T> = vec![T::default(); 3]; // cleared, not appended to
                    decompress(enc, n, &c.bytes, &mut got).unwrap();
                    let got: Vec<K> = got.into_iter().map(&key).collect();
                    let want: Vec<K> = old.iter().map(|&v| narrow(v)).collect();
                    assert_eq!(got, want, "{} n={n} shape={si} {}", enc.name(), T::NAME);
                }
            }
        }
    }

    #[test]
    fn every_lane_decodes_like_the_old_two_pass_chain() {
        fn int<T: Lane + TryFrom<i64> + PartialEq + std::fmt::Debug>(lo: T, hi: T)
        where
            i64: From<T>,
        {
            lane_matches_oracle::<T, T>(
                (lo.into(), hi.into()),
                |v| T::try_from(v).ok().expect("shape stays in range"),
                |x| x,
            );
        }
        int(i64::MIN, i64::MAX);
        int(i32::MIN, i32::MAX);
        int(i16::MIN, i16::MAX);
        int(i8::MIN, i8::MAX);
        int(u32::MIN, u32::MAX);
        lane_matches_oracle::<bool, bool>((0, 1), |v| v != 0, |x| x);
        lane_matches_oracle::<f64, u64>((i64::MIN, i64::MAX), |v| v as u64, f64::to_bits);
    }

    #[test]
    fn narrowing_overflow_is_corruption_on_every_codec() {
        // One value past INT's range, at the front, the back, and mid-block.
        for n in [1usize, 64, 65, 1024] {
            for at in [0, n / 2, n - 1] {
                let mut values: Vec<i64> = (0..n as i64).map(|i| i % 50).collect();
                values[at] = i32::MAX as i64 + 1;
                for enc in ALL {
                    let c = compress_with(&values, enc).unwrap();
                    let mut wide: Vec<i64> = Vec::new();
                    decompress(enc, n, &c.bytes, &mut wide).unwrap();
                    assert_eq!(wide, values);
                    for err in [
                        decompress(enc, n, &c.bytes, &mut Vec::<i32>::new()),
                        decompress(enc, n, &c.bytes, &mut Vec::<i16>::new()).map(|_| ()),
                    ] {
                        assert!(
                            matches!(err, Err(VwError::Corruption(_))),
                            "{} n={n} at={at}: {err:?}",
                            enc.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn corrupt_input_is_a_typed_error_never_a_panic() {
        let mut values: Vec<i64> = (0..1000).map(|i| (i * 7) % 300).collect();
        values[500] = 1 << 40; // a PFOR exception
        for enc in ALL {
            let c = compress_with(&values, enc).unwrap();
            // Every truncation of the payload.
            for cut in 0..c.bytes.len() {
                let r = decompress(enc, c.len, &c.bytes[..cut], &mut Vec::<i64>::new());
                assert!(matches!(r, Err(VwError::Corruption(_))), "{} cut {cut}", enc.name());
            }
            // A length the payload cannot hold.
            let r = decompress(enc, c.len + 64, &c.bytes, &mut Vec::<i64>::new());
            assert!(matches!(r, Err(VwError::Corruption(_))), "{} len", enc.name());
            // Every single-byte stomp: the result is the oracle's, or both
            // reject — never a panic, never an out-of-bounds write.
            for i in 0..c.bytes.len().min(64) {
                for stomp in [0x00u8, 0xFF, 0x41] {
                    let mut bytes = c.bytes.clone();
                    bytes[i] = stomp;
                    let mut got: Vec<i64> = Vec::new();
                    match (
                        decompress(enc, c.len, &bytes, &mut got),
                        oracle::decode(enc, c.len, &bytes),
                    ) {
                        (Ok(()), Ok(want)) => assert_eq!(got, want, "{} byte {i}", enc.name()),
                        (Err(VwError::Corruption(_)), _) => {}
                        (got, want) => panic!("{} byte {i}: {got:?} vs {want:?}", enc.name()),
                    }
                }
            }
        }
        // Width byte above 64 (BITPACK: offset 8; PFOR: offset 8).
        for enc in [Encoding::BitPack, Encoding::Pfor] {
            let mut c = compress_with(&values, enc).unwrap();
            c.bytes[8] = 65;
            assert!(matches!(decompress_into(&c, &mut Vec::new()), Err(VwError::Corruption(_))));
        }
        // Exception position >= n, and positions out of order.
        let mut two = values.clone();
        two[10] = 1 << 41;
        let c = compress_with(&two, Encoding::Pfor).unwrap();
        let n_exc = 2;
        let pos_at = c.bytes.len() - n_exc * 12;
        let mut beyond = c.clone();
        beyond.bytes[pos_at + 4..pos_at + 8].copy_from_slice(&5000u32.to_le_bytes());
        assert!(matches!(decompress_into(&beyond, &mut Vec::new()), Err(VwError::Corruption(_))));
        let mut swapped = c.clone();
        swapped.bytes[pos_at..pos_at + 4].copy_from_slice(&500u32.to_le_bytes());
        swapped.bytes[pos_at + 4..pos_at + 8].copy_from_slice(&10u32.to_le_bytes());
        assert!(matches!(decompress_into(&swapped, &mut Vec::new()), Err(VwError::Corruption(_))));
        // Dictionary code >= dict_len: three entries, 2-bit codes, a code 3.
        let mut w = ByteWriter::new();
        w.put_u32(3);
        (0..3).for_each(|v| w.put_u64(v));
        bitpack::pack(&[0, 1, 2, 3], 2, &mut w);
        let c = Compressed { encoding: Encoding::Dict, len: 4, bytes: w.into_bytes() };
        assert!(matches!(decompress_into(&c, &mut Vec::new()), Err(VwError::Corruption(_))));
        assert!(oracle::decode(c.encoding, c.len, &c.bytes).is_err());
    }

    #[test]
    fn corrupted_length_detected() {
        let values: Vec<i64> = (0..100).collect();
        let mut c = compress_with(&values, Encoding::Rle).unwrap();
        c.len = 101;
        let mut out = Vec::new();
        assert!(decompress_into(&c, &mut out).is_err());
    }
}
