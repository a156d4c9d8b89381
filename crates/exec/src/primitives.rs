//! Vectorized primitives — the tight per-type loops everything compiles to.
//!
//! Each primitive exists in a *full* variant (process positions `0..n`) and
//! a *selective* variant (process only selection-vector positions), exactly
//! the X100 scheme. They are written as generic functions; monomorphization
//! yields the same specialized machine loops as X100's generated primitives.
//!
//! **Selection primitives** ([`select_by`], `SelVec::retain_from`, and the
//! typed `select_*` kernels over them) are branch-free: one loop,
//! `SelVec::fill_filtered`, stores every candidate position at a write
//! cursor in a buffer pre-sized to the candidate count and advances the
//! cursor by the predicate's outcome (`out[j] = i; j += pred(i) as usize`).
//! The contract that buys: the predicate runs on *every* live position, in
//! ascending order, exactly once — so it must be safe there, cheap, and
//! free of side effects — the output is ascending, and a 50 %-selective
//! predicate costs what a 0 % or 100 % one does. What to compare with what
//! (`CmpOp`, NULL indicator or not, dictionary bitmap or values) is
//! dispatched once per vector by the caller
//! ([`SelectProgram`](crate::program::SelectProgram)), never inside `pred`.
//!
//! The arithmetic kernels take the error-checking strategy as a parameter,
//! [`ArithCheck`] — the three the paper alludes to ("special algorithms in
//! the kernel had to be devised"). The engine always passes
//! [`ArithCheck::Lazy`] (a constant in [`program`](crate::program)); the
//! other two exist for bench C7 and the kernel tests below, which drive
//! these functions directly.

use vw_common::{Result, SelVec, VwError};

/// How an arithmetic kernel detects overflow and division by zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithCheck {
    /// No checking at all — the research-prototype behaviour (wrapping).
    /// The C7 baseline; the engine never runs it.
    Unchecked,
    /// Branch per value: test every operation's result immediately.
    Naive,
    /// Compute the whole vector with wrapping arithmetic while
    /// OR-accumulating an error flag, inspect it **once per vector**. On
    /// clean data this costs almost nothing over unchecked.
    Lazy,
}

// ---------------------------------------------------------------------------
// map primitives
// ---------------------------------------------------------------------------

/// Full binary map: `out[i] = f(a[i], b[i])` for `i in 0..n`.
#[inline]
pub fn map_bin_full<T: Copy, U: Copy, R>(
    a: &[T],
    b: &[U],
    out: &mut Vec<R>,
    mut f: impl FnMut(T, U) -> R,
) {
    debug_assert_eq!(a.len(), b.len());
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| f(x, y)));
}

/// Resize `out` to `n` lanes without initializing anything already there:
/// shrink or grow once, never rewrite surviving lanes. New lanes (growth
/// only) get `R::default()`; lanes carried over keep whatever stale value
/// the previous vector held.
#[inline]
pub(crate) fn resize_uninit<R: Default + Clone>(out: &mut Vec<R>, n: usize) {
    if out.len() != n {
        out.resize(n, R::default());
    }
}

/// Selective binary map: `out[p] = f(a[p], b[p])` for selected `p`.
///
/// **Unselected lanes are garbage** (stale values from earlier batches or
/// defaults) — exactly X100's selective-primitive contract. Consumers must
/// read the output only through the same selection vector. In exchange the
/// kernel touches `sel.len()` lanes, not `a.len()`: no per-call zero-fill.
#[inline]
pub fn map_bin_sel<T: Copy, U: Copy, R: Default + Clone>(
    a: &[T],
    b: &[U],
    sel: &SelVec,
    out: &mut Vec<R>,
    mut f: impl FnMut(T, U) -> R,
) {
    resize_uninit(out, a.len());
    for p in sel.iter() {
        out[p] = f(a[p], b[p]);
    }
}

/// Full unary map.
#[inline]
pub fn map_un_full<T: Copy, R>(a: &[T], out: &mut Vec<R>, mut f: impl FnMut(T) -> R) {
    out.clear();
    out.extend(a.iter().map(|&x| f(x)));
}

// ---------------------------------------------------------------------------
// select primitives (predicates producing selection vectors)
// ---------------------------------------------------------------------------

/// Selective gather-equality: keep lanes `p` of `sel` where
/// `a[p] == b[idx[p]]` under `eq`. The hash-table probe loop uses this to
/// compare a probe key vector against gathered build-side candidate rows;
/// `eq` is monomorphized per type (bit equality for floats, `==` elsewhere).
#[inline]
pub fn select_eq_gather_by<T>(
    a: &[T],
    b: &[T],
    idx: &[u32],
    sel: &SelVec,
    out: &mut SelVec,
    mut eq: impl FnMut(&T, &T) -> bool,
) {
    sel.retain_from(|p| eq(&a[p], &b[idx[p] as usize]), out);
}

/// Run a predicate against the live positions described by `sel` (all of
/// `0..n` when `None`), replacing `out` with the positions where it holds
/// — branch-free, under the contract in the module docs: `pred` sees
/// every live position exactly once, in ascending order, whatever earlier
/// calls returned.
#[inline]
pub fn select_by(
    n: usize,
    sel: Option<&SelVec>,
    out: &mut SelVec,
    pred: impl FnMut(usize) -> bool,
) {
    match sel {
        None => out.fill_filtered(0..n as u32, pred),
        Some(s) => out.fill_filtered(s.as_slice().iter().copied(), pred),
    }
}

// ---------------------------------------------------------------------------
// checked integer arithmetic
// ---------------------------------------------------------------------------

/// Checked/unchecked i64 binary op kernels.
macro_rules! checked_int_kernel {
    ($name:ident, $wrap:ident, $overflowing:ident, $checked:ident, $opname:literal) => {
        /// Vectorized i64 arithmetic under the chosen checking strategy.
        /// `sel = None` processes all positions. With a selection, unselected
        /// output lanes are garbage (see [`map_bin_sel`]).
        pub fn $name(
            a: &[i64],
            b: &[i64],
            sel: Option<&SelVec>,
            out: &mut Vec<i64>,
            check: ArithCheck,
        ) -> Result<()> {
            debug_assert_eq!(a.len(), b.len());
            match (check, sel) {
                (ArithCheck::Unchecked, None) => {
                    out.clear();
                    out.extend(a.iter().zip(b).map(|(&x, &y)| x.$wrap(y)));
                }
                (ArithCheck::Unchecked, Some(s)) => {
                    resize_uninit(out, a.len());
                    for p in s.iter() {
                        out[p] = a[p].$wrap(b[p]);
                    }
                }
                (ArithCheck::Naive, None) => {
                    out.clear();
                    for (&x, &y) in a.iter().zip(b) {
                        match x.$checked(y) {
                            Some(v) => out.push(v),
                            None => return Err(VwError::Overflow($opname)),
                        }
                    }
                }
                (ArithCheck::Naive, Some(s)) => {
                    resize_uninit(out, a.len());
                    for p in s.iter() {
                        match a[p].$checked(b[p]) {
                            Some(v) => out[p] = v,
                            None => return Err(VwError::Overflow($opname)),
                        }
                    }
                }
                (ArithCheck::Lazy, None) => {
                    out.clear();
                    let mut flag = false;
                    out.extend(a.iter().zip(b).map(|(&x, &y)| {
                        let (v, o) = x.$overflowing(y);
                        flag |= o;
                        v
                    }));
                    if flag {
                        return Err(VwError::Overflow($opname));
                    }
                }
                (ArithCheck::Lazy, Some(s)) => {
                    let mut flag = false;
                    resize_uninit(out, a.len());
                    for p in s.iter() {
                        let (v, o) = a[p].$overflowing(b[p]);
                        flag |= o;
                        out[p] = v;
                    }
                    if flag {
                        return Err(VwError::Overflow($opname));
                    }
                }
            }
            Ok(())
        }
    };
}

checked_int_kernel!(add_i64, wrapping_add, overflowing_add, checked_add, "BIGINT +");
checked_int_kernel!(sub_i64, wrapping_sub, overflowing_sub, checked_sub, "BIGINT -");
checked_int_kernel!(mul_i64, wrapping_mul, overflowing_mul, checked_mul, "BIGINT *");

/// Vectorized i64 division with division-by-zero (and MIN/-1 overflow)
/// detection. The zero test is fused into the loop; under `Lazy` the error
/// flag is still checked only once per vector.
pub fn div_i64(
    a: &[i64],
    b: &[i64],
    sel: Option<&SelVec>,
    out: &mut Vec<i64>,
    check: ArithCheck,
) -> Result<()> {
    let run = |x: i64, y: i64, err: &mut u8| -> i64 {
        if y == 0 {
            *err |= 1;
            0
        } else if x == i64::MIN && y == -1 {
            *err |= 2;
            0
        } else {
            x / y
        }
    };
    let mut err = 0u8;
    match sel {
        None => {
            out.clear();
            if check == ArithCheck::Naive {
                for (&x, &y) in a.iter().zip(b) {
                    let v = run(x, y, &mut err);
                    if err != 0 {
                        return div_err(err);
                    }
                    out.push(v);
                }
            } else {
                out.extend(a.iter().zip(b).map(|(&x, &y)| run(x, y, &mut err)));
            }
        }
        Some(s) => {
            resize_uninit(out, a.len());
            for p in s.iter() {
                out[p] = run(a[p], b[p], &mut err);
                if check == ArithCheck::Naive && err != 0 {
                    return div_err(err);
                }
            }
        }
    }
    if err != 0 && check != ArithCheck::Unchecked {
        return div_err(err);
    }
    Ok(())
}

/// Vectorized i64 modulo with the same error semantics as [`div_i64`].
pub fn rem_i64(
    a: &[i64],
    b: &[i64],
    sel: Option<&SelVec>,
    out: &mut Vec<i64>,
    check: ArithCheck,
) -> Result<()> {
    let mut err = 0u8;
    let run = |x: i64, y: i64, err: &mut u8| -> i64 {
        if y == 0 {
            *err |= 1;
            0
        } else if x == i64::MIN && y == -1 {
            0 // MIN % -1 == 0 mathematically; no overflow
        } else {
            x % y
        }
    };
    match sel {
        None => {
            out.clear();
            out.extend(a.iter().zip(b).map(|(&x, &y)| run(x, y, &mut err)));
        }
        Some(s) => {
            resize_uninit(out, a.len());
            for p in s.iter() {
                out[p] = run(a[p], b[p], &mut err);
            }
        }
    }
    if err != 0 && check != ArithCheck::Unchecked {
        return Err(VwError::DivideByZero);
    }
    Ok(())
}

fn div_err(err: u8) -> Result<()> {
    if err & 1 != 0 {
        Err(VwError::DivideByZero)
    } else {
        Err(VwError::Overflow("BIGINT /"))
    }
}

// ---------------------------------------------------------------------------
// hashing
// ---------------------------------------------------------------------------

/// Hash a column of u64-projected keys into `hashes` (fresh seed).
#[inline]
pub fn hash_start(keys: impl Iterator<Item = u64>, hashes: &mut Vec<u64>) {
    hashes.clear();
    hashes.extend(keys.map(vw_common::hash::hash_u64));
}

/// Combine another key column into existing hashes.
#[inline]
pub fn hash_combine_col(keys: impl Iterator<Item = u64>, hashes: &mut [u64]) {
    for (h, k) in hashes.iter_mut().zip(keys) {
        *h = vw_common::hash::hash_combine(*h, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_full_and_sel() {
        let a = [1i64, 2, 3, 4];
        let b = [10i64, 20, 30, 40];
        let mut out = Vec::new();
        map_bin_full(&a, &b, &mut out, |x, y| x + y);
        assert_eq!(out, vec![11, 22, 33, 44]);
        let sel = SelVec::from_positions(vec![1, 3]);
        map_bin_sel(&a, &b, &sel, &mut out, |x, y| x * y);
        assert_eq!(out[1], 40);
        assert_eq!(out[3], 160);
        // Unselected lanes are garbage (here: stale values from the full
        // map above) — the kernel must not have spent time clearing them.
        assert_eq!(out[0], 11, "unselected lanes keep stale values");
        assert_eq!(out.len(), a.len());
    }

    #[test]
    fn sel_maps_only_touch_selected_lanes() {
        let a = [7i64; 8];
        let mut out = vec![-1i64; 8];
        let sel = SelVec::from_positions(vec![2, 5]);
        map_bin_sel(&a, &a, &sel, &mut out, |x, y| x + y);
        assert_eq!(out[2], 14);
        assert_eq!(out[5], 14);
        for p in [0usize, 1, 3, 4, 6, 7] {
            assert_eq!(out[p], -1, "lane {p} must be untouched");
        }
    }

    #[test]
    fn select_chains_narrow() {
        let a = [5i64, 10, 15, 20, 25];
        let mut s1 = SelVec::new();
        select_by(a.len(), None, &mut s1, |i| a[i] > 12);
        assert_eq!(s1.as_slice(), &[2, 3, 4]);
        let mut s2 = SelVec::new();
        select_by(a.len(), Some(&s1), &mut s2, |i| a[i] < 22);
        assert_eq!(s2.as_slice(), &[2, 3]);
    }

    #[test]
    fn all_check_modes_agree_on_clean_data() {
        let a: Vec<i64> = (0..1000).collect();
        let b: Vec<i64> = (0..1000).map(|i| i * 3).collect();
        let mut reference = Vec::new();
        add_i64(&a, &b, None, &mut reference, ArithCheck::Unchecked).unwrap();
        for check in [ArithCheck::Naive, ArithCheck::Lazy] {
            let mut out = Vec::new();
            add_i64(&a, &b, None, &mut out, check).unwrap();
            assert_eq!(out, reference);
        }
    }

    #[test]
    fn overflow_detected_by_checked_modes() {
        let a = [i64::MAX, 1];
        let b = [1i64, 1];
        let mut out = Vec::new();
        assert!(add_i64(&a, &b, None, &mut out, ArithCheck::Unchecked).is_ok());
        assert!(matches!(
            add_i64(&a, &b, None, &mut out, ArithCheck::Naive),
            Err(VwError::Overflow(_))
        ));
        assert!(matches!(
            add_i64(&a, &b, None, &mut out, ArithCheck::Lazy),
            Err(VwError::Overflow(_))
        ));
    }

    #[test]
    fn overflow_outside_selection_ignored() {
        let a = [i64::MAX, 1];
        let b = [1i64, 1];
        let sel = SelVec::from_positions(vec![1]);
        let mut out = Vec::new();
        add_i64(&a, &b, Some(&sel), &mut out, ArithCheck::Lazy).unwrap();
        assert_eq!(out[1], 2);
        add_i64(&a, &b, Some(&sel), &mut out, ArithCheck::Naive).unwrap();
    }

    #[test]
    fn division_errors() {
        let mut out = Vec::new();
        assert!(matches!(
            div_i64(&[1], &[0], None, &mut out, ArithCheck::Lazy),
            Err(VwError::DivideByZero)
        ));
        assert!(matches!(
            div_i64(&[i64::MIN], &[-1], None, &mut out, ArithCheck::Naive),
            Err(VwError::Overflow(_))
        ));
        // Unchecked swallows the error (research-prototype mode).
        div_i64(&[1], &[0], None, &mut out, ArithCheck::Unchecked).unwrap();
        assert_eq!(out, vec![0]);
        // MIN % -1 is defined (0).
        rem_i64(&[i64::MIN], &[-1], None, &mut out, ArithCheck::Lazy).unwrap();
        assert_eq!(out, vec![0]);
        assert!(rem_i64(&[5], &[0], None, &mut out, ArithCheck::Lazy).is_err());
    }

    #[test]
    fn mul_sub_kernels() {
        let mut out = Vec::new();
        mul_i64(&[3, -4], &[5, 6], None, &mut out, ArithCheck::Lazy).unwrap();
        assert_eq!(out, vec![15, -24]);
        sub_i64(&[3, -4], &[5, 6], None, &mut out, ArithCheck::Lazy).unwrap();
        assert_eq!(out, vec![-2, -10]);
        assert!(mul_i64(&[i64::MAX], &[2], None, &mut out, ArithCheck::Lazy).is_err());
    }

    #[test]
    fn hash_kernels_deterministic() {
        let mut h1 = Vec::new();
        hash_start([1u64, 2, 3].into_iter(), &mut h1);
        let mut h2 = Vec::new();
        hash_start([1u64, 2, 3].into_iter(), &mut h2);
        assert_eq!(h1, h2);
        hash_combine_col([9u64, 9, 9].into_iter(), &mut h2);
        assert_ne!(h1, h2);
        assert_ne!(h2[0], h2[1]);
    }

    #[test]
    fn select_by_with_and_without_sel() {
        let mut out = SelVec::new();
        select_by(5, None, &mut out, |i| i % 2 == 0);
        assert_eq!(out.as_slice(), &[0, 2, 4]);
        let sel = SelVec::from_positions(vec![1, 2, 3]);
        select_by(5, Some(&sel), &mut out, |i| i % 2 == 0);
        assert_eq!(out.as_slice(), &[2]);
    }

    #[test]
    fn select_and_retain_match_the_naive_loop_at_every_selectivity() {
        // 0 %, 1 %, 50 % and 100 % of the lanes qualify (scattered, not a
        // prefix), dense and under an incoming selection of every third
        // lane, through both entry points, into a dirty reused buffer.
        let n = 1000usize;
        let hash = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        let incoming = SelVec::from_positions((0..n as u32).filter(|p| p % 3 == 1).collect());
        let mut out = SelVec::from_positions((0..2000).collect());
        for percent in [0u64, 1, 50, 100] {
            let pred = |i: usize| hash(i) % 100 < percent;
            for sel in [None, Some(&incoming)] {
                let live: Vec<u32> = match sel {
                    None => (0..n as u32).collect(),
                    Some(s) => s.as_slice().to_vec(),
                };
                let naive: Vec<u32> = live.iter().copied().filter(|&p| pred(p as usize)).collect();
                let mut calls = Vec::new();
                select_by(n, sel, &mut out, |i| {
                    calls.push(i as u32);
                    pred(i)
                });
                assert_eq!(out.as_slice(), naive, "{percent}% select_by");
                assert_eq!(calls, live, "pred sees every live lane once, in order");
                assert!(out.as_slice().windows(2).all(|w| w[0] < w[1]));
                assert!(out.len() <= live.len());
                let from = SelVec::from_positions(live.clone());
                from.retain_from(pred, &mut out);
                assert_eq!(out.as_slice(), naive, "{percent}% retain_from");
            }
        }
        // An empty vector and an empty incoming selection select nothing.
        select_by(0, None, &mut out, |_| true);
        assert!(out.is_empty());
        select_by(n, Some(&SelVec::new()), &mut out, |_| true);
        assert!(out.is_empty());
    }
}
