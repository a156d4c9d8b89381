//! The catalog: both table kinds of Figure 1 under one namespace, and the
//! database's one published image of it.
//!
//! A [`Catalog`] is immutable once published. `publish` is the one way
//! committed state becomes visible: commit, CHECKPOINT, `bulk_load`,
//! CREATE TABLE and DROP TABLE each build the next catalog and swap it in
//! under `commit_lock`. A statement takes one `Arc<Catalog>` when it
//! starts and a transaction one at `BEGIN`, so every table they read is
//! read at the same instant.

use crate::Database;
use parking_lot::{MutexGuard, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use vw_common::Schema;
use vw_pdt::treap::{stable_image, Link};
use vw_pdt::PdtStore;
use vw_storage::{TableStats, TableStorage};
use vw_volcano::RowStore;

/// Storage engine of a table.
#[derive(Clone)]
pub enum TableKind {
    /// Compressed column store + PDT delta layer (the default), as of the
    /// image that holds this entry.
    Vectorwise {
        /// The stable generation the image addresses, pinned: its blocks
        /// outlive every image and scan that holds it, whatever CHECKPOINT
        /// or DROP TABLE does meanwhile (see `vw_storage::table`).
        storage: Arc<TableStorage>,
        /// The committed PDT root: its stable ids address `storage`.
        root: Link,
        /// The PDT version `root` was committed at.
        version: u64,
        /// Differential update layer: the master a commit replays onto.
        pdt: Arc<PdtStore>,
    },
    /// Classic row-store heap. It is outside images: every image shares
    /// the one heap, read and written in place under its own lock.
    Heap {
        /// The heap.
        store: Arc<RwLock<RowStore>>,
    },
}

impl TableKind {
    /// Wrap a fresh column store.
    pub fn new_vectorwise(storage: TableStorage) -> TableKind {
        let n = storage.n_rows();
        TableKind::Vectorwise {
            storage: Arc::new(storage),
            root: stable_image(n),
            version: 0,
            pdt: Arc::new(PdtStore::new(n)),
        }
    }

    /// Wrap a fresh heap store.
    pub fn new_heap(store: RowStore) -> TableKind {
        TableKind::Heap { store: Arc::new(RwLock::new(store)) }
    }
}

/// One catalog entry.
#[derive(Clone)]
pub struct TableEntry {
    /// Table name.
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Storage engine.
    pub kind: TableKind,
    /// Optimizer statistics, shared by every image of the table (and so
    /// its identity across images: a table created anew has its own).
    pub stats: Arc<RwLock<TableStats>>,
}

impl TableEntry {
    /// This VECTORWISE entry over stable generation `next` (CHECKPOINT,
    /// `bulk_load`); `publish` reads its root.
    pub(crate) fn on_generation(&self, next: TableStorage) -> TableEntry {
        let mut entry = self.clone();
        if let TableKind::Vectorwise { storage, .. } = &mut entry.kind {
            *storage = Arc::new(next);
        }
        entry
    }
}

/// The table namespace. Cloning it for the next image copies no name.
#[derive(Default, Clone)]
pub struct Catalog {
    tables: HashMap<Arc<str>, Arc<TableEntry>>,
}

impl Catalog {
    /// Lookup, case-insensitive.
    pub fn get(&self, name: &str) -> Option<Arc<TableEntry>> {
        self.tables.get(name.to_ascii_lowercase().as_str()).cloned()
    }

    /// Insert (replaces any existing entry of the same name).
    pub fn insert(&mut self, entry: TableEntry) {
        self.tables.insert(entry.name.to_ascii_lowercase().into(), Arc::new(entry));
    }

    /// Remove and return an entry.
    pub fn remove(&mut self, name: &str) -> Option<Arc<TableEntry>> {
        self.tables.remove(name.to_ascii_lowercase().as_str())
    }

    /// All table names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut v: Vec<String> = self.tables.values().map(|t| t.name.clone()).collect();
        v.sort();
        v
    }
}

/// Publish the next image of the database: the current catalog with each
/// change applied — `(name, Some(entry))` puts `entry`, `(name, None)`
/// drops `name` — swapped in by one `Arc` store. A VECTORWISE entry takes
/// its PDT's root and version as committed now. `stale` says the changes
/// are commits that changed rows: their statistics go stale until
/// CHECKPOINT rebuilds them.
///
/// The caller holds `commit_lock` (`_commit`), so no commit lands between
/// its PDT change and this image, and an image always pairs each
/// generation with the root that addresses it.
pub(crate) fn publish(
    db: &Database,
    _commit: &MutexGuard<'_, ()>,
    changes: Vec<(String, Option<TableEntry>)>,
    stale: bool,
) {
    let mut next = Catalog::clone(&db.image());
    for (name, entry) in changes {
        let Some(mut entry) = entry else {
            next.remove(&name);
            continue;
        };
        if let TableKind::Vectorwise { root, version, pdt, .. } = &mut entry.kind {
            (*root, *version, _) = pdt.snapshot();
        }
        if stale {
            entry.stats.write().mark_stale();
        }
        next.insert(entry);
    }
    *db.catalog.write() = Arc::new(next);
}
