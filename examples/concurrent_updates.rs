//! Transactions on Positional Delta Trees: snapshot isolation, write-write
//! conflict detection, and checkpoint propagation.
//!
//! Run with: `cargo run --example concurrent_updates`

use vectorwise::common::{Value, VwError};
use vectorwise::core::Database;

fn main() {
    let db = Database::open_in_memory();
    db.execute("CREATE TABLE accounts (id BIGINT NOT NULL, owner VARCHAR, balance BIGINT)")
        .unwrap();
    db.execute("INSERT INTO accounts VALUES (1, 'alice', 100), (2, 'bob', 50), (3, 'carol', 75)")
        .unwrap();

    // Two sessions, snapshot isolation.
    let mut alice = db.session();
    let mut bob = db.session();

    alice.execute("BEGIN").unwrap();
    alice.execute("UPDATE accounts SET balance = balance - 30 WHERE id = 1").unwrap();
    alice.execute("UPDATE accounts SET balance = balance + 30 WHERE id = 2").unwrap();

    // Bob reads while Alice's transaction is open: he sees the old state.
    let r = bob.execute("SELECT SUM(balance) FROM accounts").unwrap();
    println!("bob sees total = {} (Alice uncommitted)", r.rows()[0][0]);
    assert_eq!(r.rows()[0][0], Value::I64(225));

    // Bob's own transaction reads one instant: Alice's commit lands while
    // it is open, and Bob keeps reading the state as of his BEGIN.
    bob.execute("BEGIN").unwrap();
    alice.execute("COMMIT").unwrap();
    let r = bob.execute("SELECT balance FROM accounts WHERE id = 2").unwrap();
    println!("inside his transaction, bob's balance = {} (his snapshot)", r.rows()[0][0]);
    assert_eq!(r.rows()[0][0], Value::I64(50));
    bob.execute("COMMIT").unwrap();
    let r = bob.execute("SELECT balance FROM accounts WHERE id = 2").unwrap();
    println!("after Alice commits, bob's balance = {}", r.rows()[0][0]);
    assert_eq!(r.rows()[0][0], Value::I64(80));

    // Write-write conflict: both update the same row position.
    let mut s1 = db.session();
    let mut s2 = db.session();
    s1.execute("BEGIN").unwrap();
    s2.execute("BEGIN").unwrap();
    s1.execute("UPDATE accounts SET balance = 0 WHERE id = 3").unwrap();
    s2.execute("UPDATE accounts SET balance = 999 WHERE id = 3").unwrap();
    s1.execute("COMMIT").unwrap();
    match s2.execute("COMMIT") {
        Err(VwError::TxnConflict(msg)) => {
            println!("second writer correctly aborted: {msg}");
        }
        other => panic!("expected a conflict, got {other:?}"),
    }

    // The PDT accumulates deltas; CHECKPOINT merges them into fresh stable
    // storage (the paper's background update propagation, run on demand).
    for i in 0..1000 {
        db.execute(&format!("INSERT INTO accounts VALUES ({}, 'gen', {})", 10 + i, i % 100))
            .unwrap();
    }
    let r = db.execute("SELECT COUNT(*) FROM accounts").unwrap();
    println!("rows before checkpoint: {}", r.rows()[0][0]);
    db.execute("CHECKPOINT accounts").unwrap();
    let r = db.execute("SELECT COUNT(*), SUM(balance) FROM accounts").unwrap();
    println!("after checkpoint: count={}, sum={}", r.rows()[0][0], r.rows()[0][1]);

    // Deleting our own inserts within a transaction cancels them for free.
    let mut s = db.session();
    s.execute("BEGIN").unwrap();
    s.execute("INSERT INTO accounts VALUES (9999, 'temp', 1)").unwrap();
    s.execute("DELETE FROM accounts WHERE id = 9999").unwrap();
    s.execute("COMMIT").unwrap();
    let r = db.execute("SELECT COUNT(*) FROM accounts WHERE id = 9999").unwrap();
    assert_eq!(r.rows()[0][0], Value::I64(0));
    println!("insert+delete in one txn cancelled out, as expected");
}
