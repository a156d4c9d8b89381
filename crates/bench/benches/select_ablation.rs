//! Ablation: selection vectors vs eager materialization.
use vw_common::{ColData, TypeId, Value};
use vw_exec::expr::{BinOp, CmpOp, PhysExpr};
use vw_exec::{Batch, Vector};

fn bench(c: &mut Criterion) {
    let n = 64 * 1024;
    let batch = Batch::new(vec![
        Vector::new(ColData::I64((0..n as i64).collect())),
        Vector::new(ColData::I64(vec![2; n])),
    ]);
    let mul = PhysExpr::Arith {
        op: BinOp::Mul,
        lhs: Box::new(PhysExpr::ColRef(0, TypeId::I64)),
        rhs: Box::new(PhysExpr::ColRef(1, TypeId::I64)),
        ty: TypeId::I64,
    };
    let mut g = c.benchmark_group("select_ablation");
    quick(&mut g);
    for pct in [10usize, 90] {
        let pred = PhysExpr::Cmp {
            op: CmpOp::Lt,
            lhs: Box::new(PhysExpr::ColRef(0, TypeId::I64)),
            rhs: Box::new(PhysExpr::Const(Value::I64((n * pct / 100) as i64), TypeId::I64)),
        };
        g.bench_function(format!("selvec_{pct}pct"), |b| {
            b.iter(|| {
                let sel = pred.eval_select(&batch).unwrap();
                let mut bb = batch.clone();
                bb.sel = Some(sel);
                mul.eval(&bb).unwrap()
            })
        });
        g.bench_function(format!("materialize_{pct}pct"), |b| {
            b.iter(|| {
                let sel = pred.eval_select(&batch).unwrap();
                let mut bb = batch.clone();
                bb.sel = Some(sel);
                let dense = bb.compact();
                mul.eval(&dense).unwrap()
            })
        });
    }
    g.finish();
}

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

fn quick(g: &mut criterion::BenchmarkGroup<criterion::measurement::WallTime>) {
    g.sample_size(10)
        .measurement_time(Duration::from_millis(500))
        .warm_up_time(Duration::from_millis(150));
}

criterion_group!(benches, bench);
criterion_main!(benches);
