//! One workload, one process: set up, warm up, measure whole rounds for the
//! requested time with one closed-loop client thread, check every answer,
//! and (with tracing on) run the traced rounds and the direct layer
//! measurements afterwards.

use crate::layers;
use crate::machine::{self, Calibration};
use crate::metrics::{json_num, Values, END_TO_END, PER_LAYER};
use crate::oracle::{self, Digest};
use crate::stats::{fastq, geomean, median, percentile, sorted};
use crate::trace::{replay_select, Tracer, REPLAY_PHASES};
use crate::workloads::{setup, Instance, Sizes, Stmt, Workload};
use crate::{alloc, out_dir, DEFAULT_SEED};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::time::{Duration, Instant};
use vw_core::catalog::TableKind;
use vw_core::{QueryResult, Session};
use vw_storage::DiskStats;

pub struct RunOpts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Five rounds on tables an eighth the size; a smoke test, not a
    /// measurement.
    pub quick: bool,
    /// Write this run's answers to `expected/` instead of checking them.
    pub bless: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
}

const SETUPS: usize = 3;
const WARMUP_ROUNDS: usize = 5;
const QUICK_ROUNDS: usize = 5;
const TRACED_ROUNDS: usize = 30;
const ALLOC_ROUNDS: usize = 3;

/// The digests committed for the default seed.
fn committed(w: Workload) -> &'static str {
    match w {
        Workload::TpchPower => include_str!("../expected/tpch_power.txt"),
        Workload::ScanAgg => include_str!("../expected/scan_agg.txt"),
        Workload::JoinPar => include_str!("../expected/join_par.txt"),
        Workload::ServeMix => include_str!("../expected/serve_mix.txt"),
    }
}

/// Counts statements attempted and failed, warm-up included. A statement
/// fails when it errors, when its answer differs from the one computed
/// from the generated columns or committed for the default seed, or when
/// it differs from the answer the same statement gave before.
struct Checker {
    committed: Option<BTreeMap<String, Digest>>,
    first: BTreeMap<&'static str, Digest>,
    attempted: u64,
    failed: u64,
}

impl Checker {
    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED {what}: {why}");
        }
    }

    fn record(&mut self, stmt: &Stmt, result: Result<Digest, String>) {
        self.attempted += 1;
        let got = match result {
            Ok(d) => d,
            Err(e) => return self.fail(stmt.name, &e),
        };
        let mut wrong =
            stmt.expect.as_ref().and_then(|want| got.diff(want)).map(|d| {
                format!("differs from the answer computed from the generated columns: {d}")
            });
        if let (None, Some(committed)) = (&wrong, &self.committed) {
            wrong = match committed.get(stmt.name) {
                Some(want) => got.diff(want).map(|d| format!("differs from expected/: {d}")),
                None => Some("has no committed answer under expected/ (run --bless)".into()),
            };
        }
        if wrong.is_none() {
            match self.first.get(stmt.name) {
                Some(first) => {
                    wrong = got.diff(first).map(|d| format!("differs from an earlier round: {d}"));
                }
                None => {
                    self.first.insert(stmt.name, got);
                }
            }
        }
        if let Some(why) = wrong {
            self.fail(stmt.name, &why);
        }
    }
}

/// The two per-statement operational settings, untimed.
pub fn apply_settings(session: &mut Session, stmt: &Stmt) {
    for set in
        [format!("SET parallelism = {}", stmt.dop), format!("SET mem_budget = {}", stmt.mem_budget)]
    {
        session.execute(&set).expect("operational SET");
    }
}

/// What one execution of a statement's calls returned: the last result and
/// the rows affected over all calls, or the first error.
type Executed = Result<(Option<QueryResult>, u64), String>;

/// The statement's calls, once, each through `call` (the traced pass wraps
/// a span around it). On an error an open transaction is rolled back, best
/// effort, so the session stays usable for the next statement.
fn execute_once(
    session: &mut Session,
    stmt: &Stmt,
    mut call: impl FnMut(&mut Session, &str) -> vw_common::Result<QueryResult>,
) -> Executed {
    let mut last = None;
    let mut affected = 0;
    for sql in &stmt.sql {
        match call(session, sql) {
            Ok(r) => {
                affected += r.affected;
                last = Some(r);
            }
            Err(e) => {
                if session.in_transaction() {
                    let _ = session.execute("ROLLBACK");
                }
                return Err(e.to_string());
            }
        }
    }
    Ok((last, affected))
}

fn digest(executed: Executed) -> Result<Digest, String> {
    let (last, affected) = executed?;
    let mut digest = Digest::of_rows(last.iter().flat_map(|r| r.rows()));
    digest.affected = affected;
    Ok(digest)
}

/// One sample: the statement's calls, `batch` times over. Returns
/// milliseconds per execution and the digest of the last execution, which
/// is computed outside the timed section.
pub fn execute_sample(session: &mut Session, stmt: &Stmt) -> (f64, Result<Digest, String>) {
    let mut executed = Ok((None, 0));
    let t0 = Instant::now();
    for _ in 0..stmt.batch {
        executed = execute_once(session, stmt, |s, sql| s.execute(sql));
        if executed.is_err() {
            break;
        }
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3 / stmt.batch as f64;
    (ms, digest(executed))
}

/// Pending PDT deltas over the workload's DML tables.
fn delta_ops(inst: &Instance) -> u64 {
    let catalog = inst.db.catalog.read();
    inst.delta_tables
        .iter()
        .map(|t| match &catalog.get(t).expect("delta table exists").kind {
            TableKind::Vectorwise { pdt, .. } => pdt.stats().total(),
            TableKind::Heap { .. } => 0,
        })
        .sum()
}

fn round(inst: &mut Instance, checker: &mut Checker, mut sample: impl FnMut(usize, f64)) {
    for idx in 0..inst.stmts.len() {
        apply_settings(&mut inst.session, &inst.stmts[idx]);
        let (ms, result) = execute_sample(&mut inst.session, &inst.stmts[idx]);
        sample(idx, ms);
        checker.record(&inst.stmts[idx], result);
    }
}

fn sql_kind(sql: &str) -> &'static str {
    match sql.split_whitespace().next().unwrap_or("").to_ascii_uppercase().as_str() {
        "BEGIN" => "begin",
        "COMMIT" => "commit",
        "INSERT" | "UPDATE" | "DELETE" => "dml",
        _ => "select",
    }
}

/// One traced statement: `execute` as the untraced loop runs it, then for a
/// SELECT the phase-by-phase replay, whose answer must match. Returns the
/// replay's value count.
fn traced_statement(
    inst: &mut Instance,
    idx: usize,
    tracer: &mut Tracer,
    checker: &mut Checker,
) -> Option<u64> {
    apply_settings(&mut inst.session, &inst.stmts[idx]);
    let stmt = &inst.stmts[idx];
    let root = tracer.open("statement", None, idx);
    let exec = tracer.open("execute", Some(root), idx);
    let many = stmt.sql.len() > 1;
    let executed = execute_once(&mut inst.session, stmt, |session, sql| {
        let call = many.then(|| tracer.open(sql_kind(sql), Some(exec), idx));
        let result = session.execute(sql);
        if let Some(call) = call {
            tracer.close(call);
        }
        result
    });
    tracer.close(exec);
    let result = digest(executed);
    let executed = result.clone().ok();
    checker.record(stmt, result);

    let mut values = None;
    if let ([sql], Some(executed)) = (stmt.sql.as_slice(), executed) {
        if sql_kind(sql) == "select" {
            // What the session's config is for this statement: its SETs,
            // and under admission control the grant as its memory budget.
            let mut config = inst.config.clone();
            config.parallelism = stmt.dop;
            config.mem_budget_bytes = stmt.mem_budget;
            if let (Some(ctl), 0) = (inst.db.admission(), stmt.mem_budget) {
                config.mem_budget_bytes =
                    (ctl.limit() / inst.db.worker_pool().workers() as u64).max(1) as usize;
            }
            let replay = tracer.open("replay", Some(root), idx);
            let rows = replay_select(&inst.db, &config, sql, tracer, replay, idx);
            tracer.close(replay);
            checker.attempted += 1;
            match rows {
                Ok(rows) => {
                    values = Some(rows.iter().map(|r| r.len() as u64).sum());
                    if let Some(d) = Digest::of_rows(&rows).diff(&executed) {
                        checker.fail(stmt.name, &format!("replay differs from execute: {d}"));
                    }
                }
                Err(e) => checker.fail(stmt.name, &format!("replay: {e}")),
            }
        }
    }
    tracer.close(root);
    values
}

/// Per traced statement execution: microseconds by span name (calls of the
/// same kind inside one execution add up).
fn span_samples(tracer: &Tracer, n_stmts: usize) -> Vec<BTreeMap<&'static str, Vec<f64>>> {
    let mut per_stmt = vec![BTreeMap::<&'static str, Vec<f64>>::new(); n_stmts];
    let mut current: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut flush = |stmt: usize, current: &mut BTreeMap<&'static str, f64>| {
        for (name, us) in std::mem::take(current) {
            per_stmt[stmt].entry(name).or_default().push(us);
        }
    };
    let mut stmt = 0;
    for s in &tracer.spans {
        if s.name == "statement" {
            flush(stmt, &mut current);
            stmt = s.statement;
        } else {
            *current.entry(s.name).or_default() += s.us();
        }
    }
    flush(stmt, &mut current);
    per_stmt
}

/// What the untraced measured phase produced.
struct Measured {
    rounds: usize,
    /// Milliseconds per execution, by statement, in round order.
    samples: Vec<Vec<f64>>,
    /// `fastq` of each statement's samples.
    fq: Vec<f64>,
    calib_ms: Vec<f64>,
    disk_before: DiskStats,
    disk_after: DiskStats,
    delta_ops: u64,
}

/// Whole rounds, every statement once per round in a fixed order, until
/// the time is up (`--quick`: five rounds).
fn measure(inst: &mut Instance, checker: &mut Checker, budget: Option<Duration>) -> Measured {
    let calibration = Calibration::new();
    let mut calib_ms = Vec::new();
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); inst.stmts.len()];
    let stationary = delta_ops(inst);
    let disk_before = inst.db.disk().stats();
    let phase = Instant::now();
    let mut rounds = 0usize;
    loop {
        let t0 = Instant::now();
        calibration.run();
        calib_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        round(inst, checker, |idx, ms| samples[idx].push(ms));
        rounds += 1;
        if delta_ops(inst) != stationary {
            checker.attempted += 1;
            checker.fail("round", "the pending PDT delta count changed between rounds");
        }
        if budget.map_or(rounds >= QUICK_ROUNDS, |b| phase.elapsed() >= b) {
            break;
        }
    }
    Measured {
        rounds,
        fq: samples.iter().map(|s| fastq(s)).collect(),
        samples,
        calib_ms,
        disk_before,
        disk_after: inst.db.disk().stats(),
        delta_ops: stationary,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Everything `--trace 1` adds: the layer metrics the measured phase
/// already holds, the traced rounds, the allocation rounds, and the direct
/// layer measurements. Returns the span file's text.
fn traced_pass(
    opts: &RunOpts,
    inst: &mut Instance,
    checker: &mut Checker,
    m: &Measured,
    v: &mut Values,
) -> String {
    let n_stmts = inst.stmts.len();
    let names: Vec<&str> = inst.stmts.iter().map(|s| s.name).collect();
    let index_of = |name: &str| names.iter().position(|n| *n == name);
    let fq_of = |name: &str| index_of(name).map_or(0.0, |i| m.fq[i]);
    let per_round = |a: u64, b: u64| (b - a) as f64 / m.rounds as f64;
    let (d0, d1) = (&m.disk_before, &m.disk_after);
    v.set("storage.load_s", inst.load_s);
    v.set("storage.disk_reads_per_round", per_round(d0.reads, d1.reads));
    v.set("storage.disk_bytes_read_per_round", per_round(d0.bytes_read, d1.bytes_read));
    v.set("storage.stored_mb", inst.stored_bytes as f64 / (1 << 20) as f64);
    v.set("exec.spill_bytes_written", per_round(d0.bytes_written, d1.bytes_written));
    v.set("exec.dop2_speedup", ratio(fq_of("join_self_dop1"), fq_of("join_self_dop2")));
    v.set("exec.spill_slowdown", ratio(fq_of("join_spill_dop1"), fq_of("join_self_dop1")));
    v.set("pdt.delta_ops", m.delta_ops as f64);
    let p = |pct: f64| geomean(m.samples.iter().map(|s| percentile(&sorted(s), pct)));
    v.set("client.p50_ms", p(50.0));
    v.set("client.p95_ms", p(95.0));
    v.set("client.samples_per_stmt", m.rounds as f64);
    v.set("machine.calib_fastq_ms", fastq(&m.calib_ms));
    let third = (m.calib_ms.len() / 3).max(1);
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    let (head, tail) = (mean(&m.calib_ms[..third]), mean(&m.calib_ms[m.calib_ms.len() - third..]));
    v.set("machine.drift_pct", 100.0 * (tail - head) / head);

    // Traced rounds: up to 30, at least 3, within their share of the time.
    let (max_rounds, budget) = if opts.quick {
        (3, Duration::MAX)
    } else {
        (TRACED_ROUNDS, Duration::from_secs_f64(opts.seconds * 0.3))
    };
    let mut tracer = Tracer::new(max_rounds * n_stmts * 16);
    let mut emitted = vec![0u64; n_stmts];
    let phase = Instant::now();
    let mut traced = 0usize;
    while traced < max_rounds && (traced < 3 || phase.elapsed() < budget) {
        for (idx, emitted) in emitted.iter_mut().enumerate() {
            if let Some(values) = traced_statement(inst, idx, &mut tracer, checker) {
                *emitted = values;
            }
        }
        traced += 1;
    }

    // Allocation counts come from rounds of their own: counting costs an
    // atomic update per allocation, which would skew the spans.
    for _ in 0..ALLOC_ROUNDS {
        for idx in 0..n_stmts {
            apply_settings(&mut inst.session, &inst.stmts[idx]);
            alloc::on();
            let (_, result) = execute_sample(&mut inst.session, &inst.stmts[idx]);
            alloc::off();
            checker.record(&inst.stmts[idx], result);
        }
    }
    let (allocs, bytes, peak_live) = alloc::totals();
    v.set("alloc.count_per_round", allocs as f64 / ALLOC_ROUNDS as f64);
    v.set("alloc.bytes_per_round", bytes as f64 / ALLOC_ROUNDS as f64);
    v.set("alloc.peak_live_mb", peak_live as f64 / (1 << 20) as f64);

    // Per statement, the `fastq` of each span name; a layer metric is the
    // sum over the round's statements.
    let spans = span_samples(&tracer, n_stmts);
    let span_fq = |idx: usize, name: &str| spans[idx].get(name).map_or(0.0, |s| fastq(s));
    let total = |name: &str| (0..n_stmts).map(|i| span_fq(i, name)).sum::<f64>();
    let drain_of = |name: &str| index_of(name).map_or(0.0, |i| span_fq(i, "drain"));
    v.set("sql.parse_us", total("parse"));
    v.set("sql.bind_us", total("bind"));
    v.set("sql.optimize_us", total("optimize"));
    v.set("rewriter.rewrite_us", total("rewrite"));
    v.set("core.compile_us", total("compile"));
    v.set("exec.drain_us", total("drain"));
    v.set("core.emit_us", total("emit"));
    v.set("core.dml_us", total("dml"));
    v.set("core.commit_us", total("commit"));
    let replayed: Vec<usize> = (0..n_stmts).filter(|&i| spans[i].contains_key("replay")).collect();
    let select_execute: f64 = replayed.iter().map(|&i| span_fq(i, "execute")).sum();
    let phases: f64 = REPLAY_PHASES.iter().map(|p| total(p)).sum();
    let planning: f64 = REPLAY_PHASES[..5].iter().map(|p| total(p)).sum();
    v.set("sql.plan_share_pct", 100.0 * ratio(planning, select_execute));
    v.set("core.other_us", select_execute - phases);
    let values: u64 = replayed.iter().map(|&i| emitted[i]).sum();
    v.set("core.emit_ns_per_value", ratio(total("emit") * 1e3, values as f64));
    let per_row = |us: f64| us * 1e3 / inst.fact_rows as f64;
    let scan = drain_of("scan_sum");
    if scan > 0.0 {
        v.set("exec.scan_ns_per_row", per_row(scan));
        v.set("exec.filter_ns_per_row", per_row(drain_of("scan_filter_sum") - scan));
        v.set("exec.agg_ns_per_row", per_row(drain_of("scan_group_agg") - scan));
    }
    v.set("exec.build_ns_per_row", per_row(drain_of("join_build_heavy_dop2")));
    v.set("exec.probe_ns_per_row", per_row(drain_of("join_probe_heavy_dop1")));
    let slowdown = geomean((0..n_stmts).map(|i| ratio(span_fq(i, "execute") / 1e3, m.fq[i])));
    v.set("trace.overhead_pct", 100.0 * (slowdown - 1.0));

    // Direct layer measurements; the checkpoint one empties the deltas and
    // so comes last.
    let (decode, encode) = layers::compress_ns_per_value();
    v.set("compress.decode_ns_per_value", decode);
    v.set("compress.encode_ns_per_value", encode);
    v.set("pdt.apply_ns_per_op", layers::pdt_apply_ns_per_op());
    v.set("service.admit_us", layers::admit_us());
    v.set("service.pool_submit_us", layers::pool_submit_us(inst));
    let budget = Duration::from_secs_f64(if opts.quick { 0.2 } else { opts.seconds * 0.04 });
    v.set("service.two_session_speedup", layers::two_session_speedup(inst, budget));
    if let Some(plan) = inst.checkpoint.clone() {
        let cost = layers::checkpoint_cost(inst, &plan);
        v.set("core.checkpoint_ms", cost.ms);
        v.set("core.checkpoint_bytes_written", cost.bytes_written);
        v.set("pdt.merge_slowdown", ratio(m.fq[plan.read], cost.clean_read_ms));
    }
    tracer.jsonl(&names)
}

/// `results.<workload>.json`: what ran, where, and every number.
fn results_json(
    opts: &RunOpts,
    inst: &Instance,
    checker: &Checker,
    m: &Measured,
    v: &Values,
) -> String {
    let mut statements = String::new();
    for (i, stmt) in inst.stmts.iter().enumerate() {
        let s = sorted(&m.samples[i]);
        let all: Vec<String> = m.samples[i].iter().map(|ms| format!("{ms:.4}")).collect();
        write!(
            statements,
            "{}\n    {{\"name\": \"{}\", \"samples\": {}, \"fastq_ms\": {}, \"p50_ms\": {}, \
             \"p95_ms\": {}, \"samples_ms\": [{}]}}",
            if i == 0 { "" } else { "," },
            stmt.name,
            s.len(),
            json_num(m.fq[i]),
            json_num(percentile(&s, 50.0)),
            json_num(percentile(&s, 95.0)),
            all.join(", "),
        )
        .expect("write to String");
    }
    let c = &inst.config;
    format!(
        "{{\n  \"workload\": \"{}\",\n  \"why\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \
         \"rounds\": {},\n  \"quick\": {},\n  \"traced\": {},\n  \"machine\": {{\"cores\": {}, \
         \"rustc\": \"{}\", \"commit\": \"{}\"}},\n  \"engine_config\": {{\"workers\": {}, \
         \"parallelism\": {}, \"buffer_pool_bytes\": {}, \"global_mem_bytes\": {}, \
         \"vector_size\": {}, \"pack_size\": {}}},\n  \"sizes\": {{\"fact_rows\": {}, \
         \"user_bytes\": {}, \"stored_bytes\": {}}},\n  \"attempted\": {},\n  \"failed\": {},\n  \
         \"end_to_end\": {},\n  \"per_layer\": {},\n  \"statements\": [{statements}\n  ]\n}}\n",
        opts.workload.name(),
        opts.workload.why(),
        opts.seed,
        json_num(opts.seconds),
        m.rounds,
        opts.quick,
        opts.trace,
        machine::cores(),
        machine::rustc_version(),
        machine::commit(),
        c.workers,
        c.parallelism,
        c.buffer_pool_bytes,
        c.global_mem_bytes,
        c.vector_size,
        c.pack_size,
        inst.fact_rows,
        inst.user_bytes,
        inst.stored_bytes,
        checker.attempted,
        checker.failed,
        v.json(&END_TO_END),
        if opts.trace { v.json(&PER_LAYER) } else { "null".into() },
    )
}

pub fn run(opts: &RunOpts) -> Outcome {
    let w = opts.workload;
    let sizes = if opts.quick { Sizes::QUICK } else { Sizes::FULL };
    let check_committed = opts.seed == DEFAULT_SEED && !opts.quick && !opts.bless;
    let mut checker = Checker {
        committed: check_committed
            .then(|| oracle::parse_expected(committed(w)).expect("expected/ file parses")),
        first: BTreeMap::new(),
        attempted: 0,
        failed: 0,
    };
    let (steal0, jiffies0) = machine::cpu_jiffies();

    // Set-up, several times over so its time is a median: generate, load,
    // warm up. The last instance is the one measured.
    let (setups, warmups) = if opts.quick { (1, 1) } else { (SETUPS, WARMUP_ROUNDS) };
    let mut setup_s = Vec::new();
    let mut inst = None;
    for _ in 0..setups {
        drop(inst.take());
        let t0 = Instant::now();
        let mut fresh = setup(w, opts.seed, sizes);
        for _ in 0..warmups {
            round(&mut fresh, &mut checker, |_, _| {});
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        inst = Some(fresh);
    }
    let mut inst = inst.expect("at least one set-up");

    // With tracing on the measured phase gets half the time; the traced
    // rounds and layer measurements get the rest.
    let share = if opts.trace { 0.5 } else { 1.0 };
    let budget = (!opts.quick).then(|| Duration::from_secs_f64(opts.seconds * share));
    let m = measure(&mut inst, &mut checker, budget);

    let mut v = Values::default();
    v.set("setup_s", median(&setup_s));
    v.set("geomean_fastq_ms", geomean(m.fq.iter().copied()));
    v.set("stored_bytes_per_user_byte", inst.stored_bytes as f64 / inst.user_bytes as f64);
    let trace = opts.trace.then(|| traced_pass(opts, &mut inst, &mut checker, &m, &mut v));
    if opts.trace {
        let (steal1, jiffies1) = machine::cpu_jiffies();
        let stolen = ratio((steal1 - steal0) as f64, (jiffies1 - jiffies0) as f64);
        v.set("machine.steal_pct", 100.0 * stolen);
        v.set("client.failed_share", ratio(checker.failed as f64, checker.attempted as f64));
    }
    v.set("peak_rss_mb", machine::peak_rss_mb());

    // Files: answers when blessing, the trace, the self-describing result.
    let out = out_dir();
    fs::create_dir_all(&out).expect("create benchmark/out");
    if opts.bless {
        let lines: Vec<(&str, &Digest)> =
            inst.stmts.iter().map(|s| (s.name, &checker.first[s.name])).collect();
        let path = format!("{}/expected/{}.txt", env!("CARGO_MANIFEST_DIR"), w.name());
        fs::write(&path, oracle::render_expected(&lines)).expect("write expected/");
        eprintln!("blessed {path}");
    }
    if let Some(trace) = trace {
        fs::write(out.join(format!("trace.{}.jsonl", w.name())), trace).expect("write trace");
    }
    let result = results_json(opts, &inst, &checker, &m, &v);
    fs::write(out.join(format!("results.{}.json", w.name())), result).expect("write results");

    Outcome { attempted: checker.attempted, failed: checker.failed, values: v }
}
