//! Property test: the PDT image must match a naive Vec-based model under
//! arbitrary positional update sequences, and serial transactions must
//! compose like sequential application.

use proptest::prelude::*;
use std::sync::Arc;
use vw_common::Value;
use vw_pdt::treap::{for_each_piece, Piece};
use vw_pdt::PdtStore;

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
    Insert(u64, i64),
    Delete(u64),
    Update(u64, i64),
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        (any::<u64>(), any::<i64>()).prop_map(|(p, v)| Action::Insert(p, v)),
        any::<u64>().prop_map(Action::Delete),
        (any::<u64>(), any::<i64>()).prop_map(|(p, v)| Action::Update(p, v)),
    ]
}

fn flatten(store: &PdtStore, model: &Model) -> (Vec<Option<i64>>, Vec<Option<i64>>) {
    // Project both to "the i64 payload if known": stable rows yield their
    // modified value if modified, None otherwise; inserts yield Some(v).
    let (root, _, _) = store.snapshot();
    let mut pdt_side = Vec::new();
    for_each_piece(&root, &mut |piece| match piece {
        Piece::StableRun { sid, len } => {
            for s in *sid..sid + len {
                assert!(!model.mods.contains_key(&s) || true);
                pdt_side.push(None::<i64>.or({
                    // untouched stable row
                    None
                }));
                let _ = s;
            }
        }
        Piece::StableMod { mods, .. } => {
            let Value::I64(v) = mods[0].1 else { panic!() };
            pdt_side.push(Some(v));
        }
        Piece::Insert { row, .. } => {
            let Value::I64(v) = row[0] else { panic!() };
            pdt_side.push(Some(v));
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
            Action::Insert(pos, v) => {
                let n = txn.n_rows();
                let pos = pos % (n + 1);
                txn.insert_at(pos, vec![Value::I64(*v)]).unwrap();
                model.rows.insert(pos as usize, Err(*v));
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
    fn row_payload_roundtrip(values in proptest::collection::vec(any::<i64>(), 1..40)) {
        let store = PdtStore::new(0);
        let mut t = store.begin();
        for &v in &values {
            t.append(vec![Value::I64(v)]).unwrap();
        }
        store.commit(t).unwrap();
        let (root, _, _) = store.snapshot();
        let mut seen = Vec::new();
        for_each_piece(&root, &mut |piece| {
            if let Piece::Insert { row, .. } = piece {
                let Value::I64(v) = row[0] else { panic!() };
                seen.push(v);
            }
        });
        prop_assert_eq!(seen, values);
        let _ = Arc::strong_count(&Arc::new(()));
    }
}
