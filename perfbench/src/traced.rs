//! The traced run: the socket run's script replayed in-process, with spans
//! around the calls into each layer's public functions.
//!
//! Two replicas are fed the same decoded batches:
//!
//! * a [`SessionRegistry`] built from the [`RegistryConfig`] the workload's
//!   serve flags produce — it reproduces the server's lifecycle (spills,
//!   thaws, failures) request for request, since one connection keeps the
//!   order deterministic;
//! * one [`StreamMiner`] per tenant, built from [`miner_config`], whose
//!   mine is taken apart into the public calls `StreamMiner::mine_full`
//!   makes (view, enumerate, trim, prune).  When the registry is seen to
//!   spill a tenant, its engine replica hibernates; the next request to it
//!   thaws it.
//!
//! Engine spans name the session span of the request they mirror as
//! parent, so `trace.coverage` can compare the two.  Spans stay in memory
//! and are written out when the replay ends.  None of this feeds the
//! end-to-end metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

use fsm_core::miners::run_algorithm_on_view;
use fsm_core::{
    ConnectivityChecker, Exec, LifecycleState, MinerConfig, MiningResult, SessionRegistry,
    StreamMiner,
};
use fsm_dsmatrix::{decode_batch, encode_batch, ReadStats, WindowView};
use fsm_fsmd::proto::{take_patterns, Cursor};
use fsm_fsmd::server::miner_config;
use fsm_types::{EdgeCatalog, FsmError};

use crate::socket::{bytes_hash, wire_patterns, Outcome};
use crate::stats::{median, percentile};
use crate::workload::{slides, Op, Plan};
use crate::BenchError;

/// Every timed call, in report order.
pub const SPANS: [&str; 16] = [
    "proto.encode_batch",
    "proto.decode_batch",
    "proto.put_patterns",
    "proto.take_patterns",
    "session.ingest_warm",
    "session.ingest_cold",
    "session.mine_warm",
    "session.mine_cold",
    "capture.ingest",
    "dsmatrix.view",
    "dsmatrix.trim_cache",
    "miners.enumerate",
    "miners.enumerate_seq",
    "connectivity.prune",
    "lifecycle.hibernate",
    "lifecycle.thaw",
];

/// Every counter with its unit, in report order.
pub const COUNTERS: [(&str, &str); 13] = [
    ("capture.words_written", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_written", "bytes"),
    ("checkpoint.bytes", "bytes"),
    ("read.words_assembled", "count"),
    ("read.pages_read", "count"),
    ("read.cache_hits", "count"),
    ("read.rows_pinned", "count"),
    ("mine.intersections", "count"),
    ("mine.patterns_pruned", "count"),
    ("session.spills", "count"),
    ("session.thaws", "count"),
    ("session.resident_bytes_peak", "bytes"),
];

/// Spans the engine replica records on behalf of a session call; their sum
/// over the session span is `trace.coverage`.  `miners.enumerate_seq` is
/// extra work the session never does, so it is left out.
const ENGINE_SPANS: [&str; 7] = [
    "capture.ingest",
    "dsmatrix.view",
    "dsmatrix.trim_cache",
    "miners.enumerate",
    "connectivity.prune",
    "lifecycle.hibernate",
    "lifecycle.thaw",
];

/// One recorded span.
#[derive(Debug, Clone, Copy)]
struct Span {
    op: usize,
    layer: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
}

/// In-memory span and counter store.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
    /// Requests before this index are set-up; they are replayed (the
    /// replicas must reach the same state) but not reported.
    first_timed: usize,
    /// Registry-wide thaw count at the previous request.
    thaws_seen: u64,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Closes a span opened at `start`; returns its id.
    fn record(
        &mut self,
        op: usize,
        layer: &'static str,
        start: u64,
        parent: Option<usize>,
    ) -> usize {
        let end = self.now();
        self.spans.push(Span {
            op,
            layer,
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    fn count(&mut self, op: usize, name: &'static str, value: u64) {
        if op >= self.first_timed {
            *self.counters.entry(name).or_default() += value;
        }
    }

    fn count_max(&mut self, op: usize, name: &'static str, value: u64) {
        if op >= self.first_timed {
            let slot = self.counters.entry(name).or_default();
            *slot = (*slot).max(value);
        }
    }

    /// Adds the engine counters that moved between two readings.
    fn count_delta(&mut self, op: usize, before: &Counters, after: &Counters) {
        let read = |f: fn(&ReadStats) -> u64| f(&after.read).saturating_sub(f(&before.read));
        self.count(
            op,
            "capture.words_written",
            after.words_written.saturating_sub(before.words_written),
        );
        self.count(op, "wal.fsyncs", read(|r| r.fsyncs));
        self.count(op, "wal.bytes_written", read(|r| r.wal_bytes_written));
        self.count(op, "checkpoint.bytes", read(|r| r.checkpoint_bytes));
        self.count(op, "read.words_assembled", read(|r| r.words_assembled));
        self.count(op, "read.pages_read", read(|r| r.pages_read));
        self.count(op, "read.cache_hits", read(|r| r.cache_hits));
        self.count(op, "read.rows_pinned", read(|r| r.rows_pinned));
    }
}

/// Cumulative engine counters of one matrix.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    read: ReadStats,
    words_written: u64,
}

impl Counters {
    fn of(miner: &mut StreamMiner) -> Self {
        let matrix = miner.matrix_mut();
        Self {
            read: matrix.read_stats(),
            words_written: matrix.capture_stats().words_written,
        }
    }
}

/// One tenant's engine replica: live, or hibernated after the registry
/// spilled the tenant.
struct Engine {
    config: MinerConfig,
    catalog: EdgeCatalog,
    spill_dir: PathBuf,
    miner: Option<StreamMiner>,
}

/// What the traced run reports.
#[derive(Debug)]
pub struct Traced {
    /// `(name, value, unit)` of every per-layer metric.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Samples behind each span metric.
    pub samples: BTreeMap<String, usize>,
    /// Requests where a replica's answer differed from the service's.
    pub mismatches: Vec<String>,
}

/// Replays `plan` (set-up, then the timed script) in-process.  `socket`
/// holds the socket run's timed outcomes, which the replicas' answers must
/// reproduce byte for byte.
pub fn run(
    plan: &Plan,
    root: &Path,
    socket: &[Outcome],
    socket_slide_p50_us: f64,
    spans_out: &Path,
) -> Result<Traced, BenchError> {
    let registry = SessionRegistry::new(plan.flags.registry_config(&root.join("registry")));
    let mut engines = Vec::with_capacity(plan.tenants.len());
    for tenant in &plan.tenants {
        let spec = &tenant.spec;
        let mut config = miner_config(spec)?;
        registry.create_tenant(&spec.tenant, config.clone(), spec.durable)?;
        if spec.durable {
            config.durable_dir = Some(root.join("engine-durable").join(&spec.tenant));
        }
        let spill_dir = root.join("engine-spill").join(&spec.tenant);
        std::fs::create_dir_all(&spill_dir)?;
        engines.push(Engine {
            miner: Some(StreamMiner::new(config.clone())?),
            catalog: config.catalog.clone().unwrap_or_default(),
            config,
            spill_dir,
        });
    }
    let ops: Vec<Op> = plan.warmup.iter().chain(&plan.timed).copied().collect();
    let first_timed = plan.warmup.len();
    let mut replay = Replay {
        plan,
        registry,
        engines,
        tracer: Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(ops.len() * 8),
            counters: BTreeMap::new(),
            first_timed,
            thaws_seen: 0,
        },
        mismatches: Vec::new(),
    };
    // Session span of each request, `None` when the session call failed.
    let mut session_spans: Vec<Option<usize>> = Vec::with_capacity(ops.len());
    for (index, op) in ops.iter().enumerate() {
        let (span, ok, hash) = match *op {
            Op::Ingest { tenant, seq } => {
                let (span, ok) = replay.ingest(index, tenant, seq)?;
                (span, ok, None)
            }
            Op::Mine { tenant } => replay.mine(index, tenant)?,
        };
        if let Some(outcome) = index.checked_sub(first_timed).map(|i| &socket[i]) {
            let verdict = |ok: bool| if ok { "succeeded" } else { "failed" };
            if outcome.error.is_none() != ok {
                replay.mismatches.push(format!(
                    "request {index} ({op:?}): socket {} but the in-process session {}",
                    verdict(outcome.error.is_none()),
                    verdict(ok),
                ));
            } else if outcome.patterns_hash != hash {
                replay.mismatches.push(format!(
                    "request {index} ({op:?}): in-process patterns differ from the socket's"
                ));
            }
        }
        replay.observe_lifecycle(index, span)?;
        session_spans.push(ok.then_some(span));
    }
    write_spans(&replay.tracer.spans, spans_out)?;
    Ok(report(
        &replay.tracer,
        plan,
        &session_spans,
        socket_slide_p50_us,
        replay.mismatches,
    ))
}

/// Both replicas and the trace they write.
struct Replay<'a> {
    plan: &'a Plan,
    registry: SessionRegistry,
    engines: Vec<Engine>,
    tracer: Tracer,
    mismatches: Vec<String>,
}

impl Replay<'_> {
    /// Ingest through the wire codec, the session and the engine replica.
    /// Returns the session span and whether the session call succeeded.
    fn ingest(&mut self, op: usize, tenant: usize, seq: u64) -> Result<(usize, bool), BenchError> {
        let tracer = &mut self.tracer;
        let batch = self.plan.tenants[tenant].batch(seq);
        let start = tracer.now();
        let bytes = encode_batch(&batch);
        tracer.record(op, "proto.encode_batch", start, None);
        let start = tracer.now();
        let decoded = decode_batch(&bytes)?;
        tracer.record(op, "proto.decode_batch", start, None);

        let session = self.registry.get(&self.plan.tenants[tenant].spec.tenant)?;
        let layer = if session.state() == LifecycleState::Spilled {
            "session.ingest_cold"
        } else {
            "session.ingest_warm"
        };
        let start = tracer.now();
        let ok = session.ingest(&decoded).is_ok();
        let span = tracer.record(op, layer, start, None);

        let engine = &mut self.engines[tenant];
        let engine_ok = thaw(tracer, op, span, engine).is_ok() && {
            let miner = engine.miner.as_mut().expect("thawed above");
            let before = Counters::of(miner);
            let start = tracer.now();
            let ingested = miner.ingest_batch(&decoded);
            tracer.record(op, "capture.ingest", start, Some(span));
            let after = Counters::of(miner);
            tracer.count_delta(op, &before, &after);
            ingested.is_ok()
        };
        if engine_ok != ok {
            self.mismatches.push(format!(
                "request {op}: the engine replica's ingest {} where the session's {}",
                if engine_ok { "succeeded" } else { "failed" },
                if ok { "succeeded" } else { "failed" },
            ));
        }
        Ok((span, ok))
    }

    /// Mine through the session (plus the pattern codec) and through the
    /// engine replica's public calls; the two answers must be
    /// byte-identical.  Returns the session span, whether the session call
    /// succeeded, and the hash of its wire answer.
    fn mine(&mut self, op: usize, tenant: usize) -> Result<(usize, bool, Option<u64>), BenchError> {
        let tracer = &mut self.tracer;
        let session = self.registry.get(&self.plan.tenants[tenant].spec.tenant)?;
        let layer = if session.state() == LifecycleState::Spilled {
            "session.mine_cold"
        } else {
            "session.mine_warm"
        };
        let start = tracer.now();
        let result = session.mine();
        let span = tracer.record(op, layer, start, None);

        let session_bytes = match &result {
            Ok(result) => {
                let start = tracer.now();
                let bytes = wire_patterns(result.patterns());
                tracer.record(op, "proto.put_patterns", start, None);
                let start = tracer.now();
                let decoded = take_patterns(&mut Cursor::new(&bytes))?;
                tracer.record(op, "proto.take_patterns", start, None);
                if decoded != result.patterns() {
                    self.mismatches.push(format!(
                        "request {op}: pattern codec round trip changed the answer"
                    ));
                }
                Some(bytes)
            }
            Err(_) => None,
        };

        let engine = &mut self.engines[tenant];
        let exec = &self.registry.config().exec;
        let engine_result = match thaw(tracer, op, span, engine) {
            Ok(()) => engine_mine(tracer, op, span, engine, exec, &mut self.mismatches).ok(),
            Err(_) => None,
        };
        match (&session_bytes, &engine_result) {
            (Some(bytes), Some(result)) if *bytes == wire_patterns(result.patterns()) => {}
            (None, None) => {}
            _ => self.mismatches.push(format!(
                "request {op}: the engine replica of {} answered differently from its session",
                self.plan.tenants[tenant].spec.tenant
            )),
        }
        let hash = session_bytes.as_deref().map(bytes_hash);
        Ok((span, result.is_ok(), hash))
    }

    /// After each request: hibernate the engine replica of every tenant the
    /// registry spilled — attributed to `span`, the request whose
    /// completion triggered the spill — and sample the lifecycle counters.
    fn observe_lifecycle(&mut self, op: usize, span: usize) -> Result<(), BenchError> {
        let tracer = &mut self.tracer;
        let mut resident = 0u64;
        for (tenant, engine) in self.plan.tenants.iter().zip(self.engines.iter_mut()) {
            let status = self.registry.get(&tenant.spec.tenant)?.status();
            resident += status.resident_bytes;
            if status.state != LifecycleState::Spilled {
                continue;
            }
            if let Some(mut miner) = engine.miner.take() {
                tracer.count(op, "session.spills", 1);
                let before = Counters::of(&mut miner);
                let start = tracer.now();
                let hibernated = miner.hibernate(&engine.spill_dir);
                tracer.record(op, "lifecycle.hibernate", start, Some(span));
                let after = Counters::of(&mut miner);
                tracer.count_delta(op, &before, &after);
                if let Err(err) = hibernated {
                    return Err(BenchError(format!(
                        "engine replica of {} failed to hibernate: {err}",
                        tenant.spec.tenant
                    )));
                }
            }
        }
        tracer.count_max(op, "session.resident_bytes_peak", resident);
        let thaws = self
            .registry
            .statuses()
            .iter()
            .map(|(_, s)| s.thaws)
            .sum::<u64>();
        tracer.count(op, "session.thaws", thaws - tracer.thaws_seen);
        tracer.thaws_seen = thaws;
        Ok(())
    }
}

/// The public-call sequence of `StreamMiner::mine_full`, timed call by
/// call, plus the same enumeration on one thread for the fan-out gap.
fn engine_mine(
    tracer: &mut Tracer,
    op: usize,
    parent: usize,
    engine: &mut Engine,
    exec: &Exec,
    mismatches: &mut Vec<String>,
) -> Result<MiningResult, FsmError> {
    let Engine { catalog, miner, .. } = engine;
    let miner = miner.as_mut().expect("thawed before mining");
    let config = miner.config().clone();
    let before = Counters::of(miner);
    let matrix = miner.matrix_mut();
    let resolved = config.min_support.resolve(matrix.num_transactions());
    let enumerate = |view: &WindowView<'_>, exec: &Exec| {
        run_algorithm_on_view(
            config.algorithm,
            view,
            catalog,
            resolved,
            config.limits,
            exec,
        )
    };
    let (raw, sequential) = {
        let start = tracer.now();
        let view = matrix.view()?;
        tracer.record(op, "dsmatrix.view", start, Some(parent));
        let start = tracer.now();
        let raw = enumerate(&view, exec);
        tracer.record(op, "miners.enumerate", start, Some(parent));
        let start = tracer.now();
        let sequential = enumerate(&view, &Exec::scoped(1));
        tracer.record(op, "miners.enumerate_seq", start, Some(parent));
        (raw, sequential)
    };
    let start = tracer.now();
    matrix.trim_cache();
    tracer.record(op, "dsmatrix.trim_cache", start, Some(parent));
    let after = Counters::of(miner);
    tracer.count_delta(op, &before, &after);
    let raw = raw?;
    if raw.patterns != sequential?.patterns {
        mismatches.push(format!(
            "request {op}: pooled and sequential enumeration disagree"
        ));
    }
    tracer.count(op, "mine.intersections", raw.stats.intersections);
    let mut patterns = raw.patterns;
    if config.algorithm.needs_postprocessing() {
        let checker = ConnectivityChecker::new(catalog, config.connectivity);
        let start = tracer.now();
        let pruned = checker.prune_disconnected(&mut patterns);
        tracer.record(op, "connectivity.prune", start, Some(parent));
        tracer.count(op, "mine.patterns_pruned", pruned as u64);
    }
    Ok(MiningResult::new(patterns, raw.stats))
}

/// Thaws a hibernated engine replica, as the session just did.
fn thaw(
    tracer: &mut Tracer,
    op: usize,
    parent: usize,
    engine: &mut Engine,
) -> Result<(), FsmError> {
    if engine.miner.is_some() {
        return Ok(());
    }
    let start = tracer.now();
    let mut miner = StreamMiner::thaw(engine.config.clone(), &engine.spill_dir)?;
    tracer.record(op, "lifecycle.thaw", start, Some(parent));
    let after = Counters::of(&mut miner);
    tracer.count_delta(op, &Counters::default(), &after);
    engine.miner = Some(miner);
    Ok(())
}

fn write_spans(spans: &[Span], path: &Path) -> Result<(), BenchError> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "op\tlayer\tstart_ns\tend_ns\tparent")?;
    for span in spans {
        let parent = span
            .parent
            .map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            span.op, span.layer, span.start, span.end, parent
        )?;
    }
    out.flush()?;
    Ok(())
}

fn micros(span: &Span) -> f64 {
    (span.end - span.start) as f64 / 1e3
}

fn report(
    tracer: &Tracer,
    plan: &Plan,
    session_spans: &[Option<usize>],
    socket_slide_p50_us: f64,
    mismatches: Vec<String>,
) -> Traced {
    let first_timed = tracer.first_timed;
    let timed: Vec<&Span> = tracer
        .spans
        .iter()
        .filter(|s| s.op >= first_timed)
        .collect();
    let mut metrics = Vec::new();
    let mut samples = BTreeMap::new();
    for layer in SPANS {
        let mut us: Vec<f64> = timed
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| micros(s))
            .collect();
        us.sort_by(f64::total_cmp);
        samples.insert(layer.to_string(), us.len());
        // A layer that never ran on this workload reports 0.
        metrics.push((
            format!("{layer}.p50_us"),
            percentile(&us, 0.50).unwrap_or(0.0),
            "us",
        ));
        metrics.push((
            format!("{layer}.p99_us"),
            percentile(&us, 0.99).unwrap_or(0.0),
            "us",
        ));
    }
    for (counter, unit) in COUNTERS {
        let value = tracer.counters.get(counter).copied().unwrap_or(0);
        metrics.push((counter.to_string(), value as f64, unit));
    }

    let mut engine_sum = vec![0.0f64; tracer.spans.len()];
    for span in &timed {
        if let Some(parent) = span.parent.filter(|_| ENGINE_SPANS.contains(&span.layer)) {
            engine_sum[parent] += micros(span);
        }
    }
    let mut coverage: Vec<f64> = session_spans[first_timed..]
        .iter()
        .flatten()
        .map(|&id| engine_sum[id] / micros(&tracer.spans[id]).max(1e-3))
        .collect();
    coverage.sort_by(f64::total_cmp);
    samples.insert("trace.coverage".to_string(), coverage.len());
    metrics.push((
        "trace.coverage".to_string(),
        median(&coverage).unwrap_or(0.0),
        "ratio",
    ));

    let mut slide_us: Vec<f64> = slides(&plan.timed)
        .into_iter()
        .filter_map(|i| {
            let ingest = session_spans[first_timed + i]?;
            let mine = session_spans[first_timed + i + 1]?;
            Some(micros(&tracer.spans[ingest]) + micros(&tracer.spans[mine]))
        })
        .collect();
    slide_us.sort_by(f64::total_cmp);
    samples.insert("wire.overhead_us".to_string(), slide_us.len());
    let overhead = median(&slide_us).map_or(0.0, |session| socket_slide_p50_us - session);
    metrics.push(("wire.overhead_us".to_string(), overhead, "us"));
    Traced {
        metrics,
        samples,
        mismatches,
    }
}
