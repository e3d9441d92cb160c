//! `perfbench` — the socket-level benchmark of the `fsmd` service.
//!
//! ```text
//! perfbench --fsmd PATH --work DIR --workload NAME [--seed N] [--seconds S]
//!           [--trace 0|1] [--commit ID]
//! perfbench --fsmd PATH --work DIR --self-test
//! ```
//!
//! One run is a series of rounds.  Each round spawns `fsmd serve` as a
//! child process, sets it up and replays the workload's seeded script over
//! one TCP connection; every answer must match across rounds, and every
//! tenant's final answer must match a standalone in-process `StreamMiner`.
//! The end-to-end metrics are medians over the rounds measured without
//! hypervisor steal.  With `--trace 1` the run also replays one round's
//! script in-process with spans around each layer's calls and prints the
//! per-layer metrics instead.
//! The last stdout line is the result object; the line before it records
//! the run's provenance.  `--self-test` runs every workload at a tiny size,
//! traced, and fails on any wrong or non-identical answer.
//!
//! `perfbench/run.py` builds `fsmd` and this program and runs it.

mod socket;
mod stats;
mod traced;
mod workload;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use fsm_core::StreamMiner;
use fsm_fsmd::server::miner_config;
use fsm_types::FsmError;

use socket::{wire_patterns, Outcome, Server};
use stats::{json_num, json_str, median, Latencies};
use workload::{slides, Kind, Op, Plan};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// The documented second seed: a claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 2;

/// A benchmark failure: bad arguments, a broken server, a wrong answer.
#[derive(Debug)]
pub struct BenchError(pub String);

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<FsmError> for BenchError {
    fn from(err: FsmError) -> Self {
        Self(err.to_string())
    }
}

impl From<std::io::Error> for BenchError {
    fn from(err: std::io::Error) -> Self {
        Self(err.to_string())
    }
}

struct Args {
    fsmd: PathBuf,
    work: PathBuf,
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    self_test: bool,
}

fn parse_args() -> Result<Args, BenchError> {
    let mut args = Args {
        fsmd: PathBuf::new(),
        work: PathBuf::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        commit: "unknown".to_string(),
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--self-test" {
            args.self_test = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| BenchError(format!("{flag} needs a value")))?;
        let bad = || BenchError(format!("{flag}: cannot parse {value:?}"));
        match flag.as_str() {
            "--fsmd" => args.fsmd = PathBuf::from(&value),
            "--work" => args.work = PathBuf::from(&value),
            "--workload" => args.workload = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--commit" => args.commit = value,
            _ => return Err(BenchError(format!("unknown option {flag}"))),
        }
    }
    if args.fsmd.as_os_str().is_empty() || args.work.as_os_str().is_empty() {
        return Err(BenchError("--fsmd and --work are required".into()));
    }
    if args.workload.is_none() && !args.self_test {
        return Err(BenchError("--workload or --self-test is required".into()));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    // The disk backends' temporary files — the server's, the oracle's and
    // the traced replicas' — belong inside the work dir too.
    std::env::set_var("TMPDIR", args.work.join("tmp"));
    if args.self_test {
        return self_test(&args);
    }
    let kind = args.workload.expect("checked by parse_args");
    match run(
        &args,
        kind,
        args.seed,
        args.seconds,
        args.trace,
        kind.rounds(),
    ) {
        Ok(report) => {
            println!("{}", report.provenance);
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers (see above)");
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Every workload at a tiny size, traced: fails fast if the benchmark
/// itself is broken.
fn self_test(args: &Args) -> ExitCode {
    let mut ok = true;
    for kind in Kind::ALL {
        match run(args, kind, DEFAULT_SEED, 1.0, true, 1) {
            Ok(report) if report.correct => eprintln!(
                "self-test {}: ok ({} requests, {} failed)",
                kind.name(),
                report.attempted,
                report.failed
            ),
            Ok(_) => {
                eprintln!("self-test {}: wrong answers", kind.name());
                ok = false;
            }
            Err(err) => {
                eprintln!("self-test {}: {err}", kind.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
    provenance: String,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*value),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One round: a fresh `fsmd` process, set up, then driven through the
/// timed script.  Each run measures several rounds and reports the median
/// of each metric over them: thread placement and outside interference
/// change from process to process, and a median over fresh processes is
/// much steadier than any statistic of one long-lived one.
struct Round {
    /// Share of the machine's CPU time the hypervisor took during the round
    /// (`steal` in `/proc/stat`), recorded so a run measured while the host
    /// was oversubscribed can be told apart.
    steal_share: f64,
    setup_s: f64,
    outcomes: Vec<Outcome>,
    wall_s: f64,
    rss_mib: f64,
    /// Each tenant's final answer, in wire encoding.
    finals: Vec<fsm_types::Result<Vec<u8>>>,
}

fn round(args: &Args, plan: &Plan, dir: &Path) -> Result<Round, BenchError> {
    std::fs::create_dir_all(dir)?;
    let ticks_before = cpu_ticks();
    // Set-up: spawn, hello, create tenants, fill every window.
    let started = Instant::now();
    let server = Server::spawn(&args.fsmd, &plan.flags.serve_args(dir))?;
    let mut client = server.connect()?;
    for tenant in &plan.tenants {
        client.create_tenant(&tenant.spec)?;
    }
    let warmup = socket::run_ops(&mut client, plan, &plan.warmup)?;
    let setup_s = started.elapsed().as_secs_f64();
    if let Some(error) = warmup.iter().find_map(|o| o.error.as_ref()) {
        return Err(BenchError(format!("set-up request failed: {error}")));
    }

    let started = Instant::now();
    let outcomes = socket::run_ops(&mut client, plan, &plan.timed)?;
    let wall_s = started.elapsed().as_secs_f64();
    let rss_mib = server.peak_rss_mib()?;
    let finals = plan
        .tenants
        .iter()
        .map(|tenant| client.mine(&tenant.spec.tenant).map(|p| wire_patterns(&p)))
        .collect();
    drop(client);
    drop(server);
    let steal_share = match (ticks_before, cpu_ticks()) {
        (Some(before), Some(after)) => steal_share(before, after),
        _ => 0.0,
    };
    Ok(Round {
        steal_share,
        setup_s,
        outcomes,
        wall_s,
        rss_mib,
        finals,
    })
}

/// One run of one workload: `rounds` rounds, then the oracle, then (with
/// `trace`) the traced replay.
fn run(
    args: &Args,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    rounds: usize,
) -> Result<Report, BenchError> {
    let plan = Plan::new(kind, seed, seconds);
    let root = args.work.join(kind.name());
    let server_dir = root.join("server");
    let tmp = args.work.join("tmp");

    let rounds = (0..rounds)
        .map(|_| {
            settle_disk(&[&root, &tmp]);
            round(args, &plan, &server_dir)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let measured = measured_rounds(&rounds);

    let mut failed_by_tenant: BTreeMap<String, usize> = BTreeMap::new();
    let mut first_error: BTreeMap<String, String> = BTreeMap::new();
    for round in &rounds {
        for (op, outcome) in plan.timed.iter().zip(&round.outcomes) {
            if let Some(error) = &outcome.error {
                let name = plan.tenants[op_tenant(*op)].spec.tenant.clone();
                *failed_by_tenant.entry(name.clone()).or_default() += 1;
                first_error.entry(name).or_insert_with(|| error.clone());
            }
        }
    }
    // The same requests must get the same answers from every fresh server.
    let mut mismatches = Vec::new();
    for (n, round) in rounds.iter().enumerate().skip(1) {
        for (i, (a, b)) in rounds[0].outcomes.iter().zip(&round.outcomes).enumerate() {
            if a.error.is_some() != b.error.is_some() || a.patterns_hash != b.patterns_hash {
                mismatches.push(format!(
                    "round {n} answered request {i} differently from round 0"
                ));
            }
        }
    }
    let oracle = check_oracle(&plan, &rounds, &failed_by_tenant)?;
    for name in &oracle.wrong {
        mismatches.push(format!(
            "tenant {name} had no failed request but its final answer differs from the in-process reference"
        ));
    }

    let e2e = end_to_end(&plan, &measured);
    let mut samples = e2e.samples.clone();
    let metrics = if trace {
        let socket_slide_p50 = e2e
            .metrics
            .iter()
            .find(|(name, ..)| name == "slide_p50_us")
            .map(|m| m.1)
            .expect("slide_p50_us is always reported");
        let spans_out = args
            .work
            .join(format!("{}-seed{seed}-spans.tsv", kind.name()));
        let last = &measured[0].outcomes;
        settle_disk(&[&server_dir, &tmp]);
        let traced = traced::run(
            &plan,
            &root.join("traced"),
            last,
            socket_slide_p50,
            &spans_out,
        )?;
        mismatches.extend(
            traced
                .mismatches
                .iter()
                .map(|m| format!("traced replica: {m}")),
        );
        samples.extend(traced.samples);
        traced.metrics
    } else {
        e2e.metrics
    };
    settle_disk(&[&root, &tmp]);
    for mismatch in &mismatches {
        eprintln!("perfbench: {mismatch}");
    }

    let attempted = rounds.iter().map(|r| r.outcomes.len()).sum();
    let failed = failed_by_tenant.values().sum();
    let provenance = provenance(&Provenance {
        args,
        kind,
        seed,
        seconds,
        trace,
        plan: &plan,
        rounds: &rounds,
        measured: &measured,
        per_round_json: &e2e.per_round_json,
        tail_medians_json: &e2e.tail_medians_json,
        samples: &samples,
        failed_by_tenant: &failed_by_tenant,
        first_error: &first_error,
        oracle: &oracle,
    });
    Ok(Report {
        correct: mismatches.is_empty(),
        attempted,
        failed,
        metrics,
        provenance,
    })
}

/// A round during which the hypervisor took more than this share of the
/// machine's CPU time is left out of the metrics, as long as half the
/// rounds remain.
const MAX_STEAL_SHARE: f64 = 0.05;

/// The rounds the metrics are taken over, in run order: those with at most
/// [`MAX_STEAL_SHARE`] steal, or, when fewer than half are, the calmer half.
/// On a shared host, episodes of 15–30% steal come and go over tens of
/// seconds and slow every layer at once; a run that overlaps one keeps the
/// rounds measured outside it.  Every round is still checked for correct
/// answers.
fn measured_rounds(rounds: &[Round]) -> Vec<&Round> {
    let mut order: Vec<usize> = (0..rounds.len()).collect();
    order.sort_by(|&a, &b| rounds[a].steal_share.total_cmp(&rounds[b].steal_share));
    let calm = order
        .iter()
        .take_while(|&&n| rounds[n].steal_share <= MAX_STEAL_SHARE)
        .count();
    order.truncate(calm.max(rounds.len().div_ceil(2)));
    order.sort_unstable();
    order.into_iter().map(|n| &rounds[n]).collect()
}

/// Deletes what earlier rounds left on disk and writes every dirty page
/// back (`sync`) before anything is timed.  Without it, later rounds of a
/// run grew up to half slower on `durable-fleet`: a journal commit (every
/// fsync) also writes back the file system's other dirty data and discards
/// freed blocks, so each round's fsyncs paid for the rounds before it.
fn settle_disk(dirs: &[&Path]) {
    for dir in dirs {
        let _ = std::fs::remove_dir_all(dir);
    }
    let _ = std::process::Command::new("sync").status();
}

/// Clock ticks the hypervisor stole from this machine and all clock ticks,
/// since boot (first line of `/proc/stat`); `None` where it is unreadable.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|field| field.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn steal_share((steal0, total0): (u64, u64), (steal1, total1): (u64, u64)) -> f64 {
    if total1 > total0 {
        steal1.saturating_sub(steal0) as f64 / (total1 - total0) as f64
    } else {
        0.0
    }
}

fn op_tenant(op: Op) -> usize {
    match op {
        Op::Ingest { tenant, .. } | Op::Mine { tenant } => tenant,
    }
}

/// Result of comparing every tenant's final service answer with a
/// standalone miner fed the same batches.
#[derive(Debug, Default)]
struct Oracle {
    matched: Vec<String>,
    /// Tenants with failed requests whose answer differs (expected: the
    /// failed batches never reached their window).
    diverged_after_failures: Vec<String>,
    /// Tenants with no failed request whose answer differs — a silent
    /// wrong answer.
    wrong: Vec<String>,
}

fn check_oracle(
    plan: &Plan,
    rounds: &[Round],
    failed_by_tenant: &BTreeMap<String, usize>,
) -> Result<Oracle, BenchError> {
    let mut oracle = Oracle::default();
    for (index, tenant) in plan.tenants.iter().enumerate() {
        let name = tenant.spec.tenant.clone();
        let mut miner = StreamMiner::new(miner_config(&tenant.spec)?)?;
        for batch in plan.tenant_batches(index, plan.warmup.iter().chain(&plan.timed)) {
            miner.ingest_batch(&batch)?;
        }
        let reference = wire_patterns(miner.mine()?.patterns());
        let answers: Vec<_> = rounds.iter().map(|r| &r.finals[index]).collect();
        let had_failures =
            failed_by_tenant.contains_key(&name) || answers.iter().any(|a| a.is_err());
        if answers
            .iter()
            .all(|a| matches!(a, Ok(bytes) if *bytes == reference))
        {
            oracle.matched.push(name);
        } else if had_failures {
            oracle.diverged_after_failures.push(name);
        } else {
            oracle.wrong.push(name);
        }
    }
    Ok(oracle)
}

struct EndToEnd {
    metrics: Vec<(String, f64, &'static str)>,
    samples: BTreeMap<String, usize>,
    /// Every round's value of every metric, in round order, as JSON.
    per_round_json: String,
    /// Medians over rounds of the ungated p90 and p99 latencies, as JSON.
    tail_medians_json: String,
}

fn end_to_end(plan: &Plan, rounds: &[&Round]) -> EndToEnd {
    let micros = |o: &Outcome| o.nanos as f64 / 1e3;
    let mut per_round: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut samples = BTreeMap::new();
    for round in rounds {
        let mut ingest = Latencies::default();
        let mut mine = Latencies::default();
        let mut slide = Latencies::default();
        let mut transactions = 0usize;
        for (op, outcome) in plan.timed.iter().zip(&round.outcomes) {
            let ok = outcome.error.is_none();
            match op {
                Op::Ingest { .. } => {
                    ingest.push(micros(outcome), ok);
                    if ok {
                        transactions += plan.op_transactions(*op);
                    }
                }
                Op::Mine { .. } => mine.push(micros(outcome), ok),
            }
        }
        for i in slides(&plan.timed) {
            let (a, b) = (&round.outcomes[i], &round.outcomes[i + 1]);
            slide.push(
                micros(a) + micros(b),
                a.error.is_none() && b.error.is_none(),
            );
        }
        // A failed request never delivered within the round.
        let censor_us = round.wall_s * 1e6;
        for (name, latencies) in [
            ("ingest", &mut ingest),
            ("mine", &mut mine),
            ("slide", &mut slide),
        ] {
            samples.insert(format!("{name}_per_round"), latencies.samples());
            // The tails go to the provenance line only: on a shared 2-core
            // host their run-to-run spread exceeds any bound worth gating on.
            for p in [50, 90, 99] {
                let value = latencies.percentile(f64::from(p) / 100.0, censor_us);
                per_round
                    .entry(format!("{name}_p{p}_us"))
                    .or_default()
                    .push(value);
            }
        }
        per_round
            .entry("setup_s".into())
            .or_default()
            .push(round.setup_s);
        per_round
            .entry("tx_per_s".into())
            .or_default()
            .push(transactions as f64 / round.wall_s);
        per_round
            .entry("server_peak_rss_mib".into())
            .or_default()
            .push(round.rss_mib);
    }
    let attempted: usize = rounds.iter().map(|r| r.outcomes.len()).sum();
    let completed = rounds
        .iter()
        .flat_map(|r| &r.outcomes)
        .filter(|o| o.error.is_none())
        .count();
    let per_round_json = format!(
        "{{{}}}",
        per_round
            .iter()
            .map(|(name, values)| {
                let values: Vec<String> = values.iter().map(|v| json_num(*v)).collect();
                format!("{}: [{}]", json_str(name), values.join(", "))
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    samples.insert("rounds".to_string(), rounds.len());
    samples.insert("completed_op_ratio".to_string(), attempted);
    let mut tails: Vec<String> = Vec::new();
    for (name, values) in per_round.iter_mut() {
        if name.ends_with("_p90_us") || name.ends_with("_p99_us") {
            values.sort_by(f64::total_cmp);
            let value = median(values).unwrap_or(0.0);
            tails.push(format!("{}: {}", json_str(name), json_num(value)));
        }
    }
    let tail_medians_json = format!("{{{}}}", tails.join(", "));
    let mut metric = |name: &str| {
        let values = per_round
            .get_mut(name)
            .expect("every round reports every metric");
        values.sort_by(f64::total_cmp);
        median(values).unwrap_or(0.0)
    };
    let metrics = vec![
        ("setup_s", metric("setup_s"), "s"),
        ("ingest_p50_us", metric("ingest_p50_us"), "us"),
        ("mine_p50_us", metric("mine_p50_us"), "us"),
        ("slide_p50_us", metric("slide_p50_us"), "us"),
        ("tx_per_s", metric("tx_per_s"), "1/s"),
        ("server_peak_rss_mib", metric("server_peak_rss_mib"), "MiB"),
        (
            "completed_op_ratio",
            completed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ];
    EndToEnd {
        metrics: metrics
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), value, unit))
            .collect(),
        samples,
        per_round_json,
        tail_medians_json,
    }
}

struct Provenance<'a> {
    args: &'a Args,
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    plan: &'a Plan,
    rounds: &'a [Round],
    measured: &'a [&'a Round],
    per_round_json: &'a str,
    tail_medians_json: &'a str,
    samples: &'a BTreeMap<String, usize>,
    failed_by_tenant: &'a BTreeMap<String, usize>,
    first_error: &'a BTreeMap<String, String>,
    oracle: &'a Oracle,
}

/// One JSON line recording what was run, where and how.
fn provenance(p: &Provenance<'_>) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let flags: Vec<String> = p
        .plan
        .flags
        .serve_args(Path::new("<work>"))
        .iter()
        .map(|a| json_str(a))
        .collect();
    let map = |m: &BTreeMap<String, usize>| -> String {
        let items: Vec<String> = m
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        format!("{{{}}}", items.join(", "))
    };
    let list = |v: &[String]| -> String {
        let items: Vec<String> = v.iter().map(|s| json_str(s)).collect();
        format!("[{}]", items.join(", "))
    };
    let errors: Vec<String> = p
        .first_error
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    format!(
        "{{\"provenance\": {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"commit\": {}, \"host_cores\": {cores}, \"traced\": {}, \"run_seconds\": {}, \
         \"round_wall_s\": [{}], \"rounds\": {}, \"round_steal_share\": [{}], \"measured_rounds\": [{}], \"requests_per_round\": {}, \"server_flags\": [{}], \
         \"samples\": {}, \"per_round\": {}, \"tail_medians\": {}, \"failed_by_tenant\": {}, \"first_error_by_tenant\": {{{}}}, \
         \"oracle\": {{\"matched\": {}, \"diverged_after_failures\": {}, \"wrong\": {}}}}}}}",
        json_str(p.kind.name()),
        p.seed,
        json_str(&p.args.commit),
        p.trace,
        json_num(p.seconds),
        p.rounds.iter().map(|r| json_num(r.wall_s)).collect::<Vec<_>>().join(", "),
        p.rounds.len(),
        p.rounds.iter().map(|r| json_num(r.steal_share)).collect::<Vec<_>>().join(", "),
        p.rounds
            .iter()
            .enumerate()
            .filter(|(_, r)| p.measured.iter().any(|m| std::ptr::eq(*m, *r)))
            .map(|(n, _)| n.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        p.plan.timed.len(),
        flags.join(", "),
        map(p.samples),
        p.per_round_json,
        p.tail_medians_json,
        map(p.failed_by_tenant),
        errors.join(", "),
        p.oracle.matched.len(),
        list(&p.oracle.diverged_after_failures),
        list(&p.oracle.wrong),
    )
}
