//! Run-length encoding for long constant stretches.
//!
//! Vectorwise uses RLE-style coding for columns dominated by repeated values
//! (flags, status codes, denormalized dimensions). Layout:
//! `n_runs u32 | (value u64, run_len u32)*`.

use crate::io::{ByteReader, ByteWriter};
use crate::Lane;
use vw_common::{Result, VwError};

/// Encode `values` as runs.
pub fn encode(values: &[i64], w: &mut ByteWriter) {
    if values.is_empty() {
        w.put_u32(0);
        return;
    }
    let mut runs: Vec<(i64, u32)> = Vec::new();
    let mut cur = values[0];
    let mut len = 1u32;
    for &v in &values[1..] {
        if v == cur && len < u32::MAX {
            len += 1;
        } else {
            runs.push((cur, len));
            cur = v;
            len = 1;
        }
    }
    runs.push((cur, len));
    w.put_u32(runs.len() as u32);
    for (v, l) in runs {
        w.put_u64(v as u64);
        w.put_u32(l);
    }
}

/// Decode `n` values from runs, appending to `out` (each run's value is
/// narrowed once, then filled).
pub fn decode<T: Lane>(r: &mut ByteReader, n: usize, out: &mut Vec<T>) -> Result<()> {
    let n_runs = r.get_u32()? as usize;
    let mut total = 0usize;
    for _ in 0..n_runs {
        let v = r.get_u64()?;
        let l = r.get_u32()? as usize;
        total += l;
        if total > n {
            return Err(VwError::Corruption(format!("rle runs decode to more than {n} values")));
        }
        if !T::fits(v) {
            return Err(VwError::Corruption(format!("rle value out of range for {}", T::NAME)));
        }
        out.resize(out.len() + l, T::cast(v));
    }
    Ok(())
}

/// Decode the run list itself — `(value, run_len)` pairs summing to at most
/// `n` — without expanding it. The compressed execution path keeps the runs
/// as a predicate sidecar (accept/reject whole runs) next to the expanded
/// column.
pub fn decode_runs(r: &mut ByteReader, n: usize) -> Result<Vec<(i64, u32)>> {
    let n_runs = r.get_u32()? as usize;
    let mut runs = Vec::with_capacity(n_runs.min(n));
    let mut total = 0usize;
    for _ in 0..n_runs {
        let v = r.get_u64()? as i64;
        let l = r.get_u32()?;
        total += l as usize;
        if total > n {
            return Err(VwError::Corruption(format!("rle runs decode to more than {n} values")));
        }
        runs.push((v, l));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64]) -> usize {
        let mut w = ByteWriter::new();
        encode(values, &mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        decode(&mut r, values.len(), &mut out).unwrap();
        assert_eq!(out, values);
        bytes.len()
    }

    #[test]
    fn constant_is_one_run() {
        let size = roundtrip(&vec![5i64; 100_000]);
        assert_eq!(size, 4 + 12);
    }

    #[test]
    fn alternating_degrades_gracefully() {
        let values: Vec<i64> = (0..100).map(|i| i % 2).collect();
        let size = roundtrip(&values);
        assert_eq!(size, 4 + 100 * 12);
    }

    #[test]
    fn blocks_of_runs() {
        let mut values = Vec::new();
        for v in 0..50i64 {
            values.extend(std::iter::repeat_n(v, 37));
        }
        roundtrip(&values);
    }

    #[test]
    fn empty() {
        assert_eq!(roundtrip(&[]), 4);
    }

    #[test]
    fn decode_runs_matches_expansion() {
        let mut values = Vec::new();
        for v in 0..5i64 {
            values.extend(std::iter::repeat_n(v, 17));
        }
        let mut w = ByteWriter::new();
        encode(&values, &mut w);
        let bytes = w.into_bytes();
        let runs = decode_runs(&mut ByteReader::new(&bytes), values.len()).unwrap();
        assert_eq!(runs.len(), 5);
        let expanded: Vec<i64> =
            runs.iter().flat_map(|&(v, l)| std::iter::repeat_n(v, l as usize)).collect();
        assert_eq!(expanded, values);
    }

    #[test]
    fn oversized_run_detected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u64(9);
        w.put_u32(1000); // claims 1000 values
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let mut out: Vec<i64> = Vec::new();
        assert!(decode(&mut r, 10, &mut out).is_err());
    }
}
