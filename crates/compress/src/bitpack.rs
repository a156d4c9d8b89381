//! Fixed-width bit packing with a frame-of-reference base.
//!
//! The workhorse under PFOR, PFOR-DELTA and PDICT codes. Values are reduced
//! to `v - base` (wrapping, in `u64` space) and the residuals stored in `b`
//! bits each, packed little-endian into 64-bit words.
//!
//! Decoding works in blocks of [`BLOCK`] = 64 values: 64 values of `b` bits
//! are exactly `b` words, so a block starts word-aligned and its kernel is
//! one of 65 width-specialised instances (`unpack_block`, const-generic
//! width, every shift and word index a compile-time constant, no bounds
//! check, no branch per value). `for_each_block` is the one driver every
//! codec decodes through: it checks the payload length **once**, unpacks a
//! block into a stack buffer that never leaves L1, and hands it to the
//! codec's sink, which applies its frame base / delta prefix / dictionary
//! lookup / exception patch and the narrowing to the destination type
//! straight into the destination vector. No full-column intermediate
//! (`residuals`, `deltas`, `codes`) is ever materialised.

use crate::io::{ByteReader, ByteWriter};
use crate::{bits_for, emit, Lane};
use vw_common::{Result, VwError};

/// Values per decode block (64 values of `b` bits = `b` whole words).
pub const BLOCK: usize = 64;

/// Pack `values` (already reduced residuals) with `bits` bits each.
/// `bits == 0` writes nothing (all residuals are zero);
/// `bits == 64` degenerates to raw words.
pub fn pack(values: &[u64], bits: u32, w: &mut ByteWriter) {
    debug_assert!(bits <= 64);
    if bits == 0 {
        return;
    }
    let mut acc: u64 = 0;
    let mut filled: u32 = 0;
    for &v in values {
        debug_assert!(bits == 64 || v < (1u64 << bits));
        acc |= v << filled;
        let used = 64 - filled;
        if bits >= used {
            w.put_u64(acc);
            // `v >> used` is UB-free because used > 0 here (filled < 64).
            acc = if used == 64 { 0 } else { v >> used };
            filled = bits - used;
        } else {
            filled += bits;
        }
    }
    if filled > 0 {
        w.put_u64(acc);
    }
}

/// Value `i` of a block of `W`-bit values held in `words`. Inlined with a
/// literal `i`, so the word index, the shift and the straddle test are all
/// constants: what is left is a shift, at most one more shift-and-or, a mask.
#[inline(always)]
fn lane<const W: usize>(words: &[u64; W], i: usize) -> u64 {
    let (w, s) = (i * W / 64, i * W % 64);
    let mut v = words[w] >> s;
    if s + W > 64 {
        v |= words[w + 1] << (64 - s);
    }
    if W < 64 {
        v &= (1u64 << W) - 1;
    }
    v
}

/// Unpack one full block: 64 values of `W` bits from the `W` little-endian
/// words at the start of `src`.
fn unpack_block<const W: usize>(src: &[u8], out: &mut [u64; BLOCK]) {
    let mut words = [0u64; W];
    for (w, c) in words.iter_mut().zip(src[..W * 8].chunks_exact(8)) {
        // Infallible: chunks_exact(8) yields 8-byte windows.
        *w = u64::from_le_bytes(c.try_into().unwrap());
    }
    macro_rules! lanes {
        ($($i:literal)*) => { $( out[$i] = lane::<W>(&words, $i); )* };
    }
    lanes!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31
           32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60
           61 62 63);
}

/// The block kernel for `bits` in `1..=64`, chosen once per chunk.
fn kernel_for(bits: u32) -> fn(&[u8], &mut [u64; BLOCK]) {
    macro_rules! widths {
        ($($w:literal)*) => {
            match bits {
                $( $w => unpack_block::<$w>, )*
                _ => unreachable!("take_packed rejects widths above 64; 0 has no payload"),
            }
        };
    }
    widths!(1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28 29 30 31 32
            33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56 57 58 59 60 61
            62 63 64)
}

/// Bytes `n` values of `bits` bits occupy: whole 64-bit words, what
/// [`pack`] writes.
pub(crate) fn packed_bytes(n: usize, bits: u32) -> Result<usize> {
    if bits > 64 {
        return Err(VwError::Corruption(format!("bit width {bits} > 64")));
    }
    n.checked_mul(bits as usize)
        .map(|b| b.div_ceil(64) * 8)
        .ok_or_else(|| VwError::Corruption(format!("{n} values of {bits} bits overflow")))
}

/// Take the packed payload of `n` values of `bits` bits off `r` — the one
/// length check of a chunk's decode (`Corruption` when truncated or the
/// width is not a width).
pub(crate) fn take_packed<'a>(r: &mut ByteReader<'a>, n: usize, bits: u32) -> Result<&'a [u8]> {
    r.get_bytes(packed_bytes(n, bits)?)
}

/// Unpack `payload` (from [`take_packed`]) block by block: `sink` sees each
/// block's values, in order, as a mutable slice of the stack buffer (64
/// values, fewer in the last block), to patch and transform in place
/// before emitting. Stops at the sink's first error.
pub(crate) fn for_each_block(
    payload: &[u8],
    n: usize,
    bits: u32,
    mut sink: impl FnMut(&mut [u64]) -> Result<()>,
) -> Result<()> {
    let mut block = [0u64; BLOCK];
    if bits == 0 {
        // Every residual is zero; re-zero because the sink writes in place.
        for start in (0..n).step_by(BLOCK) {
            block.fill(0);
            sink(&mut block[..BLOCK.min(n - start)])?;
        }
        return Ok(());
    }
    let kernel = kernel_for(bits);
    let stride = bits as usize * 8;
    let full = n / BLOCK;
    debug_assert_eq!(Ok(payload.len()), packed_bytes(n, bits));
    for src in payload.chunks_exact(stride).take(full) {
        kernel(src, &mut block);
        sink(&mut block)?;
    }
    let rest = n % BLOCK;
    if rest > 0 {
        // The last block's words are fewer than `bits`: pad them so the
        // full-block kernel can run, and hand over only the real values.
        let mut padded = [0u8; BLOCK * 8];
        let tail = &payload[full * stride..];
        padded[..tail.len()].copy_from_slice(tail);
        kernel(&padded, &mut block);
        sink(&mut block[..rest])?;
    }
    Ok(())
}

/// Encode with frame-of-reference: header = (base, bits), then packed
/// residuals `v.wrapping_sub(base)`.
pub fn encode_for(values: &[i64], w: &mut ByteWriter) {
    if values.is_empty() {
        return;
    }
    // Infallible: the empty frame returned above, so min()/max() see >= 1.
    let base = *values.iter().min().unwrap();
    // Residuals are computed in wrapping u64 space so i64::MIN..=i64::MAX
    // frames work; the max residual determines the width.
    let max_resid = values.iter().map(|&v| (v as u64).wrapping_sub(base as u64)).max().unwrap();
    let bits = bits_for(max_resid);
    w.put_u64(base as u64);
    w.put_u8(bits as u8);
    let residuals: Vec<u64> =
        values.iter().map(|&v| (v as u64).wrapping_sub(base as u64)).collect();
    pack(&residuals, bits, w);
}

/// Decode a frame-of-reference block of `n` values, appending to `out`:
/// the frame base is added and the value narrowed to `T` as each block
/// leaves the unpack kernel.
pub fn decode_for<T: Lane>(r: &mut ByteReader, n: usize, out: &mut Vec<T>) -> Result<()> {
    if n == 0 {
        return Ok(());
    }
    let base = r.get_u64()?;
    let bits = r.get_u8()? as u32;
    let payload = take_packed(r, n, bits)?;
    for_each_block(payload, n, bits, |block| {
        for d in block.iter_mut() {
            *d = base.wrapping_add(*d);
        }
        emit(block, out)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_bits(values: &[u64], bits: u32) {
        let mut w = ByteWriter::new();
        pack(values, bits, &mut w);
        let bytes = w.into_bytes();
        let expected_words =
            if bits == 0 { 0 } else { (values.len() * bits as usize).div_ceil(64) };
        assert_eq!(bytes.len(), expected_words * 8, "packed size for {bits} bits");
        let mut r = ByteReader::new(&bytes);
        let payload = take_packed(&mut r, values.len(), bits).unwrap();
        let mut out = Vec::new();
        for_each_block(payload, values.len(), bits, |block| {
            out.extend_from_slice(block);
            Ok(())
        })
        .unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn pack_every_width() {
        for bits in 0..=64u32 {
            let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
            let values: Vec<u64> =
                (0..257u64).map(|i| i.wrapping_mul(0x9E3779B97F4A7C15) & mask).collect();
            roundtrip_bits(&values, bits);
        }
    }

    #[test]
    fn pack_empty() {
        roundtrip_bits(&[], 13);
    }

    #[test]
    fn for_negative_range() {
        let values: Vec<i64> = (-500..500).collect();
        let mut w = ByteWriter::new();
        encode_for(&values, &mut w);
        let bytes = w.into_bytes();
        // base (8) + bits (1) + 1000 values at 10 bits.
        assert!(bytes.len() < 9 + (1000 * 10 / 8) + 16);
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode_for(&mut r, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn for_full_i64_domain() {
        let values = vec![i64::MIN, i64::MAX, 0, -1, 1];
        let mut w = ByteWriter::new();
        encode_for(&values, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode_for(&mut r, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn constant_column_is_one_header() {
        let values = vec![123_456i64; 4096];
        let mut w = ByteWriter::new();
        encode_for(&values, &mut w);
        // base + bits byte, zero payload.
        assert_eq!(w.len(), 9);
    }

    #[test]
    fn truncated_input_detected() {
        let values: Vec<i64> = (0..100).collect();
        let mut w = ByteWriter::new();
        encode_for(&values, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 1]);
        let mut out: Vec<i64> = Vec::new();
        assert!(decode_for(&mut r, values.len(), &mut out).is_err());
    }
}
