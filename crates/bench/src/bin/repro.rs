//! `repro` — regenerate every paper-experiment table (C1..C11).
//!
//! Usage: `cargo run --release -p vw-bench --bin repro [-- --exp c1]`
//! (no argument = all experiments; sizes are laptop-scale by design).

use vw_bench::experiments as ex;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.to_ascii_lowercase());
    let want = |name: &str| exp.as_deref().is_none_or(|e| e == name || e == "all");

    if want("c1") {
        ex::print_table("C1: vectorized vs tuple-at-a-time (Q6-like, 200k rows)", &ex::c1(200_000));
    }
    if want("c2") {
        ex::print_table("C2: compression schemes (1M values)", &ex::c2(1_000_000));
    }
    if want("c3") {
        ex::print_table(
            "C3: cooperative scans (48 chunks, cache 12, 4 concurrent scans)",
            &ex::c3(48, 12, 4),
        );
    }
    if want("c4") {
        ex::print_table("C4: PDT deltas (100k-row table)", &ex::c4(100_000));
    }
    if want("c5") {
        ex::print_table(
            "C5: rewriter parallelization (200k rows; 1 physical core)",
            &ex::c5(200_000),
        );
    }
    if want("c6") {
        ex::print_table("C6: NULL representation (1M values)", &ex::c6(1_000_000));
    }
    if want("c7") {
        ex::print_table("C7: overflow checking (1M values)", &ex::c7(1_000_000));
    }
    if want("c8") {
        ex::print_table("C8: query cancellation latency (50k-row self-join)", &ex::c8(50_000));
    }
    if want("c9") {
        ex::print_table("C9: storage layouts, scan k of 9 columns (100k rows)", &ex::c9(100_000));
    }
    if want("c10") {
        ex::print_table("C10: SQL function battery (100k rows)", &ex::c10(100_000));
    }
    if want("c11") {
        ex::print_table("C11: monitored short query (50k rows, 50 queries)", &ex::c11(50_000, 50));
    }
    if want("ablation") || exp.is_none() {
        ex::print_table(
            "Ablation: selection vectors vs materialization (1M rows)",
            &ex::select_ablation(1_000_000),
        );
    }
}
