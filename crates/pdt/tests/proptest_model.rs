//! Property test: the PDT image must match a naive Vec-based model under
//! arbitrary positional update sequences — inserts as runs of rows,
//! deletes and updates anywhere in a run, updates of stable rows as
//! overlays — and serial transactions must compose like sequential
//! application.

use proptest::prelude::*;
use std::sync::Arc;
use vw_common::{ColData, Value};
use vw_pdt::treap::{for_each_piece, Piece};
use vw_pdt::{Block, PdtStore, Rows};

/// The reference model: the visible image as a vector of rows, where each
/// row is either an untouched stable row (Ok(sid)) or an inserted value
/// (Err(v)); stable modifications are tracked in a side map.
#[derive(Clone, Debug, Default)]
struct Model {
    rows: Vec<std::result::Result<u64, i64>>,
    mods: std::collections::HashMap<u64, i64>,
}

impl Model {
    fn new(n: u64) -> Model {
        Model { rows: (0..n).map(Ok).collect(), mods: Default::default() }
    }
}

#[derive(Debug, Clone)]
enum Action {
    /// A run of `len` rows holding `v`, `v + 1`, … at a position.
    Insert(u64, i64, i64),
    Delete(u64),
    Update(u64, i64),
    /// Up to `len` rows from a position updated as one batch to `v`,
    /// `v + 1`, …: one block that stable rows overlay as a run.
    UpdateRun(u64, i64, i64),
}

/// A run of `len` inserted rows holding `v`, `v + 1`, ….
fn run_of(v: i64, len: i64) -> Rows {
    Rows { cols: vec![ColData::I64((v..v + len).collect())], nulls: vec![None] }
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u64>(), -1_000_000i64..1_000_000, 1i64..6)
            .prop_map(|(p, v, len)| Action::Insert(p, v, len)),
        any::<u64>().prop_map(Action::Delete),
        (any::<u64>(), any::<i64>()).prop_map(|(p, v)| Action::Update(p, v)),
        (any::<u64>(), -1_000_000i64..1_000_000, 1i64..8)
            .prop_map(|(p, v, len)| Action::UpdateRun(p, v, len)),
    ]
}

fn flatten(store: &PdtStore, model: &Model) -> (Vec<Option<i64>>, Vec<Option<i64>>) {
    // Project both to "the i64 payload if known": stable rows yield their
    // modified value if modified, None otherwise; inserts yield Some(v).
    let (root, _, _) = store.snapshot();
    let mut pdt_side = Vec::new();
    let value = |col: &ColData, r: u64| {
        let Value::I64(v) = col.get_value(r as usize) else { panic!() };
        Some(v)
    };
    for_each_piece(&root, &mut |piece| match piece {
        // Untouched stable rows.
        Piece::StableRun { len, overlay: None, .. } => pdt_side.extend((0..*len).map(|_| None)),
        // Modified stable rows: every update writes column 0.
        Piece::StableRun { len, overlay: Some((block, start)), .. } => {
            let col = &block.rows.cols[block.find(0).expect("column 0 modified")];
            pdt_side.extend((*start..start + len).map(|r| value(col, r)));
        }
        Piece::Insert { rows, start, len, .. } => {
            pdt_side.extend((*start..start + len).map(|r| value(&rows.cols[0], r)))
        }
    });
    let model_side = model
        .rows
        .iter()
        .map(|r| match r {
            Ok(sid) => model.mods.get(sid).copied(),
            Err(v) => Some(*v),
        })
        .collect();
    (pdt_side, model_side)
}

fn apply(
    store: &PdtStore,
    model: &mut Model,
    actions: &[Action],
    ops_per_txn: usize,
) {
    let mut txn = store.begin();
    for (i, a) in actions.iter().enumerate() {
        match a {
            Action::Insert(pos, v, len) => {
                let n = txn.n_rows();
                let pos = pos % (n + 1);
                txn.insert_rows(pos, run_of(*v, *len)).unwrap();
                let at = pos as usize;
                model.rows.splice(at..at, (*v..v + len).map(Err));
            }
            Action::Delete(pos) => {
                let n = txn.n_rows();
                if n == 0 {
                    continue;
                }
                let pos = pos % n;
                // The engine forbids deleting committed inserts without a
                // checkpoint; skip those in the model too.
                if let Err(_prev) = model.rows[pos as usize] {
                    if txn.delete_at(pos).is_err() {
                        continue;
                    }
                } else {
                    txn.delete_at(pos).unwrap();
                }
                let removed = model.rows.remove(pos as usize);
                if let Ok(sid) = removed {
                    model.mods.remove(&sid);
                }
            }
            Action::Update(pos, v) => {
                let n = txn.n_rows();
                if n == 0 {
                    continue;
                }
                let pos = pos % n;
                match model.rows[pos as usize] {
                    Ok(sid) => {
                        txn.update_at(pos, 0, Value::I64(*v)).unwrap();
                        model.mods.insert(sid, *v);
                    }
                    Err(_) => {
                        if txn.update_at(pos, 0, Value::I64(*v)).is_ok() {
                            model.rows[pos as usize] = Err(*v);
                        }
                    }
                }
            }
            Action::UpdateRun(pos, v, len) => {
                let n = txn.n_rows();
                if n == 0 {
                    continue;
                }
                let pos = pos % n;
                let rids: Vec<u64> = (pos..(pos + *len as u64).min(n)).collect();
                let values: Vec<i64> = (0..rids.len() as i64).map(|k| v + k).collect();
                let rows = Rows { cols: vec![ColData::I64(values.clone())], nulls: vec![None] };
                txn.update_batch(&rids, Arc::new(Block { cols: vec![0], rows })).unwrap();
                for (&rid, &x) in rids.iter().zip(&values) {
                    match model.rows[rid as usize] {
                        Ok(sid) => drop(model.mods.insert(sid, x)),
                        Err(_) => model.rows[rid as usize] = Err(x),
                    }
                }
            }
        }
        if (i + 1) % ops_per_txn == 0 {
            store.commit(std::mem::replace(&mut txn, store.begin())).unwrap();
            // Fresh txn must see the committed image.
            txn = store.begin();
        }
    }
    store.commit(txn).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pdt_matches_model_single_txn(
        n_stable in 0u64..50,
        actions in proptest::collection::vec(action_strategy(), 0..60),
    ) {
        let store = PdtStore::new(n_stable);
        let mut model = Model::new(n_stable);
        apply(&store, &mut model, &actions, usize::MAX);
        prop_assert_eq!(store.visible_rows() as usize, model.rows.len());
        let (a, b) = flatten(&store, &model);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn pdt_matches_model_serial_txns(
        n_stable in 0u64..40,
        actions in proptest::collection::vec(action_strategy(), 0..60),
        ops_per_txn in 1usize..7,
    ) {
        let store = PdtStore::new(n_stable);
        let mut model = Model::new(n_stable);
        apply(&store, &mut model, &actions, ops_per_txn);
        prop_assert_eq!(store.visible_rows() as usize, model.rows.len());
        let (a, b) = flatten(&store, &model);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn row_payload_roundtrip(
        values in proptest::collection::vec(any::<i64>(), 1..40),
        run in 1usize..8,
    ) {
        let store = PdtStore::new(0);
        let mut t = store.begin();
        for chunk in values.chunks(run) {
            let rows = Rows { cols: vec![ColData::I64(chunk.to_vec())], nulls: vec![None] };
            t.insert_rows(t.n_rows(), rows).unwrap();
        }
        store.commit(t).unwrap();
        prop_assert_eq!(store.stats().inserts, values.len() as u64);
        let (root, _, _) = store.snapshot();
        let mut seen = Vec::new();
        for_each_piece(&root, &mut |piece| {
            if let Piece::Insert { rows, start, len, .. } = piece {
                for r in *start..start + len {
                    let Value::I64(v) = rows.cols[0].get_value(r as usize) else { panic!() };
                    seen.push(v);
                }
            }
        });
        prop_assert_eq!(seen, values);
    }
}
