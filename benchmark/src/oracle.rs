//! Answer checking: an order-insensitive digest of a statement's result,
//! compared against (a) a digest the benchmark computes from its own
//! generated columns, where that is direct, (b) the digest committed under
//! `expected/` for the default seed, and (c) the first round's digest
//! (every round must return the same answer).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use vw_common::Value;

/// Floats compare at this relative tolerance (parallel plans add them in a
/// different order); everything else compares exactly.
const FLOAT_REL_TOL: f64 = 1e-9;

#[derive(Debug, Clone, Default, PartialEq)]
pub struct Digest {
    pub rows: u64,
    /// Rows affected, summed over the statement's DML calls.
    pub affected: u64,
    /// Wrapping sum over rows of a hash of the row's non-float values.
    pub hash: u64,
    /// Per float column (by position): (sum, sum of magnitudes).
    pub floats: BTreeMap<usize, (f64, f64)>,
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29) ^ 0x5851_F42D_4C95_7F2D
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01B3))
}

impl Digest {
    pub fn of_rows<'a>(rows: impl IntoIterator<Item = &'a Vec<Value>>) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add_row(row);
        }
        d
    }

    pub fn affected(n: u64) -> Digest {
        Digest { affected: n, ..Digest::default() }
    }

    pub fn add_row(&mut self, row: &[Value]) {
        self.rows += 1;
        let mut h = 0u64;
        for (i, v) in row.iter().enumerate() {
            // Integers hash by value whatever their width, so a reference
            // row need not guess the engine's result type.
            let code = match v {
                Value::Null => 1,
                Value::Bool(b) => 2 + *b as u64,
                Value::I8(x) => mix(4, *x as i64 as u64),
                Value::I16(x) => mix(4, *x as i64 as u64),
                Value::I32(x) => mix(4, *x as i64 as u64),
                Value::I64(x) => mix(4, *x as u64),
                Value::Date(d) => mix(5, d.0 as i64 as u64),
                Value::Str(s) => mix(6, hash_bytes(s.as_bytes())),
                Value::F64(x) => {
                    let e = self.floats.entry(i).or_insert((0.0, 0.0));
                    e.0 += x;
                    e.1 += x.abs();
                    7
                }
            };
            h = mix(h, mix(i as u64, code));
        }
        self.hash = self.hash.wrapping_add(h);
    }

    /// `None` when equal, else what differs.
    pub fn diff(&self, want: &Digest) -> Option<String> {
        if self.rows != want.rows {
            return Some(format!("rows {} != {}", self.rows, want.rows));
        }
        if self.affected != want.affected {
            return Some(format!("affected {} != {}", self.affected, want.affected));
        }
        if self.hash != want.hash {
            return Some(format!("hash {:016x} != {:016x}", self.hash, want.hash));
        }
        if !self.floats.keys().eq(want.floats.keys()) {
            return Some("float columns differ".into());
        }
        for (col, (sum, mag)) in &self.floats {
            let (wsum, wmag) = want.floats[col];
            let scale = mag.max(wmag);
            if (sum - wsum).abs() > FLOAT_REL_TOL * scale
                || (mag - wmag).abs() > FLOAT_REL_TOL * scale
            {
                return Some(format!("float column {col}: {sum:e} != {wsum:e}"));
            }
        }
        None
    }

    fn render(&self) -> String {
        let mut s =
            format!("rows={} affected={} hash={:016x}", self.rows, self.affected, self.hash);
        for (col, (sum, mag)) in &self.floats {
            write!(s, " f{col}={sum:e}/{mag:e}").expect("write to String");
        }
        s
    }

    fn parse(fields: &[&str]) -> Option<Digest> {
        let mut d = Digest::default();
        for f in fields {
            let (k, v) = f.split_once('=')?;
            match k {
                "rows" => d.rows = v.parse().ok()?,
                "affected" => d.affected = v.parse().ok()?,
                "hash" => d.hash = u64::from_str_radix(v, 16).ok()?,
                _ => {
                    let col = k.strip_prefix('f')?.parse().ok()?;
                    let (sum, mag) = v.split_once('/')?;
                    d.floats.insert(col, (sum.parse().ok()?, mag.parse().ok()?));
                }
            }
        }
        Some(d)
    }
}

/// One `expected/<workload>.txt` file: a line per statement,
/// `name rows=… affected=… hash=… f<col>=<sum>/<abs sum> …`.
pub fn render_expected(stmts: &[(&str, &Digest)]) -> String {
    let mut out = String::new();
    for (name, d) in stmts {
        writeln!(out, "{name} {}", d.render()).expect("write to String");
    }
    out
}

pub fn parse_expected(text: &str) -> Result<BTreeMap<String, Digest>, String> {
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let d = Digest::parse(&fields[1..]).ok_or_else(|| format!("bad expected line: {line}"))?;
        out.insert(fields[0].to_string(), d);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_row_order_and_float_rounding_but_not_values() {
        let a = vec![Value::I64(1), Value::Str("x".into()), Value::F64(0.1 + 0.2)];
        let b = vec![Value::I64(2), Value::Str("y".into()), Value::F64(1.5)];
        let d1 = Digest::of_rows([&a, &b]);
        let b2 = vec![Value::I32(2), Value::Str("y".into()), Value::F64(1.5)];
        let a2 = vec![Value::I64(1), Value::Str("x".into()), Value::F64(0.3)];
        assert_eq!(d1.diff(&Digest::of_rows([&b2, &a2])), None);
        let a3 = vec![Value::I64(1), Value::Str("x".into()), Value::F64(0.31)];
        assert!(d1.diff(&Digest::of_rows([&a3, &b])).is_some());
        let swapped = vec![Value::I64(2), Value::Str("x".into()), Value::F64(0.3)];
        let swapped2 = vec![Value::I64(1), Value::Str("y".into()), Value::F64(1.5)];
        assert!(d1.diff(&Digest::of_rows([&swapped, &swapped2])).is_some());
    }

    #[test]
    fn expected_file_round_trips() {
        let d = Digest::of_rows([&vec![Value::F64(-1.25e7), Value::I64(9)]]);
        let text = render_expected(&[("q", &d), ("dml", &Digest::affected(40))]);
        let parsed = parse_expected(&text).unwrap();
        assert_eq!(parsed["q"], d);
        assert_eq!(parsed["dml"].affected, 40);
    }
}
