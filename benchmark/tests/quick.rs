//! Runs `--quick --trace 1` (five rounds on small tables, every workload in
//! its own process) and holds its output against `BENCHMARK.json`: every
//! declared workload and metric is reported exactly once per workload, with
//! the declared unit, under a name made of letters, digits, `_`, `.`, `-`.

use std::collections::BTreeMap;
use std::process::Command;

/// (section, name, unit) for every `"name"` in `BENCHMARK.json`, which is
/// written one key per line.
fn declared() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside benchmark/");
    let value = |line: &str| line.split('"').nth(3).expect("quoted value").to_string();
    let mut out: Vec<(String, String, String)> = Vec::new();
    let mut section = String::new();
    for line in text.lines().map(str::trim) {
        if line.ends_with('[') {
            section = line.split('"').nth(1).expect("quoted key").to_string();
        } else if line.starts_with("\"name\"") {
            out.push((section.clone(), value(line), String::new()));
        } else if line.starts_with("\"unit\"") {
            out.last_mut().expect("unit follows a name").2 = value(line);
        }
    }
    out
}

#[test]
fn quick_run_reports_every_declared_name_once_with_its_unit() {
    let declared = declared();
    let workloads: Vec<&str> =
        declared.iter().filter(|d| d.0 == "workloads").map(|d| d.1.as_str()).collect();
    let metrics: Vec<(&str, &str)> = declared
        .iter()
        .filter(|d| d.0 == "end_to_end" || d.0 == "per_layer")
        .map(|d| (d.1.as_str(), d.2.as_str()))
        .collect();
    assert_eq!(workloads, ["tpch_power", "scan_agg", "join_par", "serve_mix"]);
    assert!(metrics.iter().any(|m| m == &("setup_s", "s")), "the contract's set-up metric");
    for (_, name, _) in &declared {
        assert!(
            !name.is_empty()
                && name.len() <= 64
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad name {name:?}"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_vw-benchmark"))
        .args(["--quick", "--trace", "1", "--seed", "7"])
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(out.status.success(), "{stdout}\n{}", String::from_utf8_lossy(&out.stderr));

    // workload -> metric -> units it was printed with
    let mut seen: BTreeMap<String, BTreeMap<String, Vec<String>>> = BTreeMap::new();
    let mut current = None;
    let mut results = 0;
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with("workload ") {
            assert!(seen.insert(fields[1].to_string(), BTreeMap::new()).is_none(), "{line}");
            current = Some(fields[1].to_string());
        } else if line.starts_with("  ") {
            let per_workload = seen.get_mut(current.as_ref().expect("metrics follow a workload"));
            let units = per_workload.expect("seen").entry(fields[0].to_string()).or_default();
            units.push(fields[2].to_string());
        } else if line.starts_with('{') {
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "), "{line}");
            for (name, unit) in metrics.iter().filter(|m| m.0.contains('.')) {
                let field = format!("\"{name}\": {{\"value\": ");
                assert_eq!(line.matches(&field).count(), 1, "{name} in {line}");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit} in {line}");
            }
            results += 1;
        }
    }
    assert_eq!(seen.len(), workloads.len());
    assert_eq!(results, workloads.len(), "one result line per workload");
    for w in &workloads {
        let reported = &seen[*w];
        assert_eq!(reported.len(), metrics.len(), "{w}: undeclared or missing metrics");
        for (name, unit) in &metrics {
            assert_eq!(reported.get(*name), Some(&vec![unit.to_string()]), "{w} {name}");
        }
    }
}
