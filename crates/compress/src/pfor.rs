//! PFOR and PFOR-DELTA — patched frame-of-reference compression.
//!
//! Plain frame-of-reference must size its bit width for the *largest*
//! residual, so one outlier ruins a whole block. PFOR instead picks the
//! width that covers the bulk of the values and stores the outliers as
//! *exceptions*. The ICDE'06 paper stores exception offsets inside the
//! unused code slots as a linked list; we store (position, value) arrays
//! after the packed payload — simpler framing, same decode structure.
//!
//! Decode is one pass over `bitpack::for_each_block`: each 64-value block
//! leaves the width-specialised unpack kernel in a stack buffer, the
//! exceptions that fall into it overwrite their slots there (positions are
//! ascending, so a cursor walks the exception arrays once), and the frame
//! base — for PFOR-DELTA also the running prefix sum — is applied as the
//! block is narrowed into the destination vector. The only per-value work
//! is shift/mask/add; every check (payload length, width, exception
//! positions, narrowing) is made once per chunk.
//!
//! PFOR-DELTA applies PFOR to the differences of consecutive values, which
//! turns sorted/clustered columns (keys, dates, foreign keys) into tiny
//! residuals. Deltas are computed with wrapping arithmetic so the full i64
//! domain round-trips.

use crate::bitpack;
use crate::io::{ByteReader, ByteWriter};
use crate::{bits_for, emit, Lane};
use vw_common::{Result, VwError};

/// Fraction of values that should be covered by the packed width; the
/// remainder become exceptions. 1/32 ≈ 3% exceptions is the classic
/// operating point reported for PFOR.
const EXCEPTION_BUDGET_DIV: usize = 32;

/// Decide (base, bits, exception_count) for PFOR over `values`.
///
/// Builds the residual-width histogram and chooses the width minimizing
/// `n*bits + exceptions*(4+8)*8` bits, i.e. actual encoded size.
fn plan(values: &[i64]) -> (u64, u32, usize) {
    let base = values.iter().copied().min().unwrap_or(0) as u64;
    let mut width_hist = [0usize; 65];
    for &v in values {
        width_hist[bits_for((v as u64).wrapping_sub(base)) as usize] += 1;
    }
    // exc_at[b] = number of values whose residual needs more than b bits,
    // i.e. the exception count if we pack at width b.
    let mut best_bits = 64u32;
    let mut best_cost = u64::MAX;
    let mut exc_at = [0usize; 65];
    let mut above = 0usize;
    for b in (0..=64usize).rev() {
        if b < 64 {
            above += width_hist[b + 1];
        }
        exc_at[b] = above;
    }
    for b in 0..=64u32 {
        let exc = exc_at[b as usize];
        let cost = values.len() as u64 * b as u64 + exc as u64 * 96;
        if cost < best_cost {
            best_cost = cost;
            best_bits = b;
        }
    }
    // Clamp the exception rate: extremely exception-heavy plans decode
    // slower, prefer widening until within budget.
    let budget = values.len() / EXCEPTION_BUDGET_DIV + 1;
    let mut bits = best_bits;
    while bits < 64 && exc_at[bits as usize] > budget {
        bits += 1;
    }
    (base, bits, exc_at[bits as usize])
}

/// Encode `values` with PFOR.
///
/// Layout: `base u64 | bits u8 | n_exc u32 | packed residuals | exc positions
/// (u32 each) | exc values (u64 each)`.
pub fn encode_pfor(values: &[i64], w: &mut ByteWriter) {
    if values.is_empty() {
        return;
    }
    let (base, bits, n_exc) = plan(values);
    let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
    w.put_u64(base);
    w.put_u8(bits as u8);
    w.put_u32(n_exc as u32);
    let mut residuals = Vec::with_capacity(values.len());
    let mut exc_pos: Vec<u32> = Vec::with_capacity(n_exc);
    let mut exc_val: Vec<u64> = Vec::with_capacity(n_exc);
    for (i, &v) in values.iter().enumerate() {
        let resid = (v as u64).wrapping_sub(base);
        if bits < 64 && bits_for(resid) > bits {
            exc_pos.push(i as u32);
            exc_val.push(resid);
            residuals.push(resid & mask); // truncated; patched on decode
        } else {
            residuals.push(resid);
        }
    }
    debug_assert_eq!(exc_pos.len(), n_exc);
    bitpack::pack(&residuals, bits, w);
    for &p in &exc_pos {
        w.put_u32(p);
    }
    for &v in &exc_val {
        w.put_u64(v);
    }
}

/// The header and the three byte ranges of a PFOR block of `n` values.
struct PforBlock<'a> {
    base: u64,
    bits: u32,
    payload: &'a [u8],
    exc_pos: &'a [u8],
    exc_val: &'a [u8],
}

impl<'a> PforBlock<'a> {
    fn read(r: &mut ByteReader<'a>, n: usize) -> Result<PforBlock<'a>> {
        let base = r.get_u64()?;
        let bits = r.get_u8()? as u32;
        let n_exc = r.get_u32()? as usize;
        if n_exc > n {
            return Err(VwError::Corruption(format!("pfor exceptions {n_exc} > n {n}")));
        }
        let payload = bitpack::take_packed(r, n, bits)?;
        Ok(PforBlock {
            base,
            bits,
            payload,
            exc_pos: r.get_bytes(n_exc * 4)?,
            exc_val: r.get_bytes(n_exc * 8)?,
        })
    }

    /// Unpack the `n` values block by block, patched and with the frame
    /// base added; `sink` transforms further and emits.
    fn decode(&self, n: usize, mut sink: impl FnMut(&mut [u64]) -> Result<()>) -> Result<()> {
        // Infallible: chunks_exact(4 / 8) yield windows of exactly that size.
        let mut excs = self
            .exc_pos
            .chunks_exact(4)
            .map(|p| u32::from_le_bytes(p.try_into().unwrap()) as usize)
            .zip(self.exc_val.chunks_exact(8).map(|v| u64::from_le_bytes(v.try_into().unwrap())))
            .peekable();
        let mut start = 0usize;
        bitpack::for_each_block(self.payload, n, self.bits, |block| {
            let end = start + block.len();
            while let Some(&(p, v)) = excs.peek().filter(|&&(p, _)| p < end) {
                // A position before its block is out of order: the cursor
                // cannot go back (and the encoder never writes one).
                let slot = p.checked_sub(start).ok_or_else(|| {
                    VwError::Corruption("pfor exception positions not ascending".into())
                })?;
                block[slot] = v;
                excs.next();
            }
            for d in block.iter_mut() {
                *d = self.base.wrapping_add(*d);
            }
            start = end;
            sink(block)
        })?;
        match excs.next() {
            None => Ok(()),
            Some((p, _)) => Err(VwError::Corruption(format!("pfor exception position {p} >= {n}"))),
        }
    }
}

/// Decode a PFOR block of `n` values, appending to `out`.
pub fn decode_pfor<T: Lane>(r: &mut ByteReader, n: usize, out: &mut Vec<T>) -> Result<()> {
    if n == 0 {
        return Ok(());
    }
    PforBlock::read(r, n)?.decode(n, |block| emit(block, out))
}

/// Encode with PFOR-DELTA: `first u64 | pfor(deltas of values[1..])`.
pub fn encode_pfor_delta(values: &[i64], w: &mut ByteWriter) {
    if values.is_empty() {
        return;
    }
    w.put_u64(values[0] as u64);
    if values.len() == 1 {
        return;
    }
    let deltas: Vec<i64> = values.windows(2).map(|p| p[1].wrapping_sub(p[0])).collect();
    encode_pfor(&deltas, w);
}

/// Decode a PFOR-DELTA block of `n` values, appending to `out`: the
/// prefix sum runs over each block in place before it is narrowed.
pub fn decode_pfor_delta<T: Lane>(r: &mut ByteReader, n: usize, out: &mut Vec<T>) -> Result<()> {
    if n == 0 {
        return Ok(());
    }
    let mut cur = r.get_u64()?;
    emit(&[cur], out)?;
    if n == 1 {
        return Ok(());
    }
    PforBlock::read(r, n - 1)?.decode(n - 1, |deltas| {
        let mut sum = cur;
        for d in deltas.iter_mut() {
            sum = sum.wrapping_add(*d);
            *d = sum;
        }
        cur = sum;
        emit(deltas, out)
    })
}

/// Estimated encoded byte size of PFOR for this data (scheme selection).
pub fn estimate_bytes(values: &[i64]) -> usize {
    if values.is_empty() {
        return 0;
    }
    let (_, bits, n_exc) = plan(values);
    13 + (values.len() * bits as usize).div_ceil(8) + n_exc * 12
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_pfor(values: &[i64]) -> usize {
        let mut w = ByteWriter::new();
        encode_pfor(values, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode_pfor(&mut r, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
        bytes.len()
    }

    fn roundtrip_delta(values: &[i64]) -> usize {
        let mut w = ByteWriter::new();
        encode_pfor_delta(values, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode_pfor_delta(&mut r, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
        bytes.len()
    }

    #[test]
    fn outliers_do_not_ruin_block() {
        // 4095 small values + 1 huge one: plain FOR needs 64 bits/value,
        // PFOR should stay near 7 bits/value.
        let mut values: Vec<i64> = (0..4096).map(|i| i % 100).collect();
        values[1234] = i64::MAX;
        let size = roundtrip_pfor(&values);
        assert!(size < 4096 * 2, "pfor size {size} should be ~1 byte/value");
    }

    #[test]
    fn exception_heavy_block_still_roundtrips() {
        // Alternating tiny/huge: exception budget forces a wide bit width.
        let values: Vec<i64> =
            (0..2048).map(|i| if i % 2 == 0 { i } else { i64::MAX - i }).collect();
        roundtrip_pfor(&values);
    }

    #[test]
    fn sorted_data_compresses_with_delta() {
        let values: Vec<i64> = (0..8192).map(|i| 1_000_000 + i * 7).collect();
        let pfor_size = roundtrip_pfor(&values);
        let delta_size = roundtrip_delta(&values);
        assert!(
            delta_size * 2 < pfor_size,
            "delta {delta_size} should clearly beat pfor {pfor_size} on sorted data"
        );
    }

    #[test]
    fn delta_handles_descending_and_wrapping() {
        let values: Vec<i64> = (0..1000).map(|i| 1_000_000 - i * 13).collect();
        roundtrip_delta(&values);
        let values = vec![i64::MAX, i64::MIN, i64::MAX, 0, i64::MIN];
        roundtrip_delta(&values);
    }

    #[test]
    fn empty_and_singleton() {
        roundtrip_pfor(&[]);
        roundtrip_pfor(&[-7]);
        roundtrip_delta(&[]);
        roundtrip_delta(&[i64::MIN]);
    }

    #[test]
    fn estimate_close_to_actual() {
        let values: Vec<i64> = (0..4096).map(|i| (i * i) % 1000).collect();
        let mut w = ByteWriter::new();
        encode_pfor(&values, &mut w);
        let actual = w.len();
        let est = estimate_bytes(&values);
        let diff = actual.abs_diff(est);
        assert!(diff * 10 < actual, "estimate {est} too far from actual {actual}");
    }

    #[test]
    fn corrupted_exception_position_detected() {
        let mut values: Vec<i64> = (0..100).collect();
        values[50] = i64::MAX;
        let mut w = ByteWriter::new();
        encode_pfor(&values, &mut w);
        let mut bytes = w.into_bytes();
        // Exception position lives after the packed payload; stomp the last
        // 12 bytes (pos+val) with an absurd position.
        let n = bytes.len();
        bytes[n - 12..n - 8].copy_from_slice(&5000u32.to_le_bytes());
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        assert!(decode_pfor(&mut r, values.len(), &mut out).is_err());
    }

    #[test]
    fn corrupted_width_detected() {
        let values: Vec<i64> = (0..100).collect();
        let mut w = ByteWriter::new();
        encode_pfor(&values, &mut w);
        let mut bytes = w.into_bytes();
        bytes[8] = 200; // width byte
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        assert!(decode_pfor(&mut r, values.len(), &mut out).is_err());
    }
}
