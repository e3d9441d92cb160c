//! Experiment E3 (§5, third experiment + Figure 2): time efficiency.
//!
//! Expected ordering (paper): runtime(multi-tree) > runtime(single-tree ≈
//! top-down) > runtime(vertical) > runtime(direct-vertical).  Figure 2 plots
//! the two vertical algorithms against each other; the companion Criterion
//! bench `fig2_vertical` produces the statistically rigorous version of that
//! figure, while this binary prints the full table across all algorithms.

use fsm_bench::report::{markdown_table, millis};
use fsm_bench::{run_algorithm_on, run_algorithm_threaded, run_baselines_on, Workload};
use fsm_core::{Algorithm, MinerSnapshot, StreamMiner, StreamMinerBuilder};
use fsm_dsmatrix::{DsMatrix, DsMatrixConfig};
use fsm_storage::{BitVec, StorageBackend};
use fsm_stream::WindowConfig;
use fsm_types::MinSup;

/// Shared experiment setup: every section mines the same workload suite at
/// the same thresholds and window, so the configuration is derived once here
/// instead of being repeated (and risking drift) in every section.
struct Setup {
    /// Sliding-window length in batches.
    window: usize,
    /// Pattern-cardinality cap for the timing tables (sections that need the
    /// enumeration to dominate deepen it locally).
    max_len: Option<usize>,
    /// Timing repeats per measured cell.
    repeats: u32,
    /// Worker threads for the parallel-scaling section.
    threads: usize,
    /// The standard workload suite, each paired with its minsup (dense
    /// streams mine at a higher relative threshold, as in the paper's
    /// experiment setup).
    workloads: Vec<(Workload, MinSup)>,
}

impl Setup {
    fn new(scale: usize, threads: usize) -> Self {
        let workloads = Workload::standard_suite(scale)
            .into_iter()
            .map(|workload| {
                let minsup = match workload.kind {
                    fsm_bench::WorkloadKind::Dense => MinSup::relative(0.15),
                    _ => MinSup::relative(0.03),
                };
                (workload, minsup)
            })
            .collect();
        Self {
            window: 5,
            max_len: Some(4),
            repeats: 3,
            threads,
            workloads,
        }
    }
}

fn main() {
    let mut scale = None;
    let mut threads = 4usize;
    let mut json_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let parsed = if arg == "--threads" {
            args.next().and_then(|s| s.parse().ok()).map(|n| {
                // Resolve "all cores" up front so the report names the real
                // worker count.
                threads = if n == 0 {
                    std::thread::available_parallelism()
                        .map(|c| c.get())
                        .unwrap_or(1)
                } else {
                    n
                };
            })
        } else if arg == "--json-out" {
            args.next().map(|path| json_out = Some(path))
        } else if scale.is_none() {
            arg.parse().ok().map(|n| scale = Some(n))
        } else {
            None
        };
        if parsed.is_none() {
            eprintln!("usage: exp3_runtime [SCALE] [--threads N] [--json-out PATH]");
            std::process::exit(2);
        }
    }
    let setup = Setup::new(scale.unwrap_or(1), threads);

    main_table(&setup);
    parallel_scaling(&setup);
    concurrent_ingest_mine(&setup);
    slide_cost(&setup);
    read_amplification(&setup);
    disk_read_amplification(&setup);
    durability(&setup);
    let kernels = kernel_timings();

    if let Some(path) = json_out {
        let json = render_json(scale.unwrap_or(1), &kernels);
        std::fs::write(&path, json).expect("write --json-out file");
        println!("wrote kernel numbers to {path}");
    }
}

/// The headline E3 table: all five algorithms plus the DSTree/DSTable
/// baselines on every workload, with the paper's runtime-ordering check.
fn main_table(setup: &Setup) {
    println!(
        "# Experiment E3 — time efficiency (averaged over {} runs)\n",
        setup.repeats
    );

    for (workload, minsup) in &setup.workloads {
        println!("## {} ({})\n", workload.name, workload.stats());
        let mut rows = Vec::new();
        let mut timings = std::collections::BTreeMap::new();

        for algorithm in Algorithm::ALL {
            let mut total_mine = std::time::Duration::ZERO;
            let mut total_capture = std::time::Duration::ZERO;
            let mut patterns = 0;
            for _ in 0..setup.repeats {
                let run = run_algorithm_on(
                    workload,
                    algorithm,
                    setup.window,
                    *minsup,
                    setup.max_len,
                    StorageBackend::DiskTemp,
                )
                .expect("run");
                total_mine += run.mining_time;
                total_capture += run.capture_time;
                patterns = run.patterns;
            }
            let mine_avg = total_mine / setup.repeats;
            timings.insert(algorithm.key().to_string(), mine_avg);
            rows.push(vec![
                algorithm.key().to_string(),
                millis(total_capture / setup.repeats),
                millis(mine_avg),
                patterns.to_string(),
            ]);
        }
        for run_result in
            run_baselines_on(workload, setup.window, *minsup, setup.max_len).expect("baselines")
        {
            rows.push(vec![
                run_result.label.clone(),
                millis(run_result.capture_time),
                millis(run_result.mining_time),
                run_result.patterns.to_string(),
            ]);
        }

        println!(
            "{}",
            markdown_table(
                &[
                    "miner",
                    "capture ms (stream)",
                    "mine ms (window)",
                    "patterns"
                ],
                &rows
            )
        );

        let get = |k: &str| timings.get(k).copied().unwrap_or_default();
        let horizontal_slowest = get("multi-tree");
        let single = get("single-tree").min(get("top-down"));
        let vertical = get("vertical");
        let direct = get("direct-vertical");
        println!(
            "ordering check: multi-tree ({} ms) >= single/top-down ({} ms) >= vertical ({} ms) >= direct ({} ms) : {}\n",
            millis(horizontal_slowest),
            millis(single),
            millis(vertical),
            millis(direct),
            if horizontal_slowest >= single && single >= vertical && vertical >= direct {
                "holds"
            } else {
                "see Criterion bench for the statistically robust comparison"
            }
        );
    }
}

/// Durability section: what WAL-before-apply costs per slide (bytes appended
/// and fsyncs issued), what checkpoints cost in bytes, and how long crash
/// recovery (newest checkpoint + WAL-tail replay) takes as the window grows.
///
/// Every row is measured: the run is "crashed" by dropping the miner without
/// a shutdown checkpoint, recovered with [`StreamMiner::recover`], and the
/// recovered window's patterns are asserted identical to the uninterrupted
/// run's.  The memory backend is asserted to pay nothing — all durability
/// counters stay zero when durability is off.
fn durability(setup: &Setup) {
    println!("# Durability — WAL overhead per slide, recovery time vs window size\n");
    for (workload, minsup) in &setup.workloads {
        let minsup = *minsup;
        println!("## {} ({})\n", workload.name, workload.stats());
        let mut rows = Vec::new();
        for window in [3usize, 5, 10] {
            let dir = fsm_storage::TempDir::new("bench-durable").expect("tempdir");
            let build = |recover: bool| -> StreamMiner {
                let mut builder = StreamMinerBuilder::new()
                    .algorithm(Algorithm::DirectVertical)
                    .window_batches(window)
                    .min_support(minsup)
                    .backend(StorageBackend::DiskTemp)
                    .catalog(workload.catalog.clone())
                    .durable(dir.path())
                    // Not a divisor of the stream length: the final batches
                    // live only in the WAL, so recovery really replays.
                    .checkpoint_every(3);
                if recover {
                    builder = builder.recover();
                }
                builder.build().expect("miner")
            };
            let mut miner = build(false);
            for batch in &workload.batches {
                miner.ingest_batch(batch).expect("ingest");
            }
            let expected = miner.mine().expect("mine");
            let stats = expected.stats().clone();
            // "Crash": drop without a shutdown checkpoint; recovery has real
            // WAL replay to do.
            drop(miner);

            let start = std::time::Instant::now();
            let mut recovered = build(true);
            let recovery_time = start.elapsed();
            let report = recovered
                .recovery_report()
                .expect("recovered miner has a report")
                .clone();
            let result = recovered.mine().expect("mine recovered");
            assert!(
                result.same_patterns_as(&expected),
                "recovered patterns must match the uninterrupted run: {:?}",
                expected.diff(&result)
            );

            let slides = workload.batches.len() as u64;
            rows.push(vec![
                window.to_string(),
                (stats.wal_bytes_written / slides.max(1)).to_string(),
                format!("{:.1}", stats.fsyncs as f64 / slides.max(1) as f64),
                stats.checkpoint_bytes.to_string(),
                millis(recovery_time),
                report.replayed_batches.to_string(),
            ]);
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "window (batches)",
                    "WAL bytes/slide",
                    "fsyncs/slide",
                    "checkpoint bytes",
                    "recovery ms",
                    "batches replayed"
                ],
                &rows
            )
        );

        // The zero-cost claim, asserted: durability off (and in particular
        // the memory backend) adds no WAL, no fsyncs, no checkpoints.
        let mut volatile = StreamMinerBuilder::new()
            .algorithm(Algorithm::DirectVertical)
            .window_batches(5)
            .min_support(minsup)
            .backend(StorageBackend::Memory)
            .catalog(workload.catalog.clone())
            .build()
            .expect("miner");
        for batch in &workload.batches {
            volatile.ingest_batch(batch).expect("ingest");
        }
        let volatile_stats = volatile.mine().expect("mine").stats().clone();
        assert_eq!(volatile_stats.wal_bytes_written, 0);
        assert_eq!(volatile_stats.fsyncs, 0);
        assert_eq!(volatile_stats.checkpoint_bytes, 0);
        assert_eq!(volatile_stats.recovery_replayed_batches, 0);
        println!(
            "recovered patterns identical to the uninterrupted run (asserted); \
             memory backend pays 0 WAL bytes, 0 fsyncs, 0 checkpoint bytes (asserted)\n"
        );
    }
}

/// Disk read-amplification section: pages fetched from the paged files and
/// words assembled into flat rows per mine call on the disk backend — the
/// eager path (cache budget 0, per-mine full-window assembly) against the
/// pinned chunk cache (rows mined straight from pinned decoded chunks).
///
/// All columns are measured via [`DsMatrix::read_stats`].  The steady-state
/// row demonstrates the incremental bound twice over: once the window is
/// warm, the budgeted path fetches only the chunks the preceding slide
/// invalidated (~rows touched by the slide) **and assembles zero words** —
/// the pinned read path never materialises a flat row — and the section
/// asserts both bounds instead of merely printing them.
fn disk_read_amplification(setup: &Setup) {
    let window = setup.window;
    println!("# Disk read amplification — pages fetched / words assembled per mine call (disk backend)\n");
    for (workload, _) in &setup.workloads {
        let make = |budget: usize| {
            DsMatrix::new(
                DsMatrixConfig::new(
                    WindowConfig::new(window).expect("window"),
                    StorageBackend::DiskTemp,
                    workload.catalog.num_edges(),
                )
                .with_cache_budget(budget),
            )
            .expect("matrix")
        };
        let mut eager = make(0);
        let mut budgeted = make(usize::MAX);
        let mut mines = 0u64;
        // eager pages, budgeted pages, cache hits, eager words, budgeted
        // words, budgeted rows pinned
        let mut totals = [0u64; 6];
        let mut steady = [0u64; 6]; // same, counted once the window is full
        let mut steady_mines = 0u64;
        let mut steady_slide_rows = 0u64;
        for (idx, batch) in workload.batches.iter().enumerate() {
            let rows_before = budgeted.capture_stats().rows_written;
            eager.ingest_batch(batch).expect("ingest");
            budgeted.ingest_batch(batch).expect("ingest");
            let slide_rows = budgeted.capture_stats().rows_written - rows_before;

            let (e0, b0) = (eager.read_stats(), budgeted.read_stats());
            let eager_view = eager.view().expect("view");
            assert_eq!(eager_view.num_transactions(), eager.num_transactions());
            let budgeted_view = budgeted.view().expect("view");
            assert_eq!(
                budgeted_view.num_transactions(),
                budgeted.num_transactions()
            );
            eager.trim_cache();
            budgeted.trim_cache();
            let (e1, b1) = (eager.read_stats(), budgeted.read_stats());

            let delta = [
                e1.pages_read - e0.pages_read,
                b1.pages_read - b0.pages_read,
                b1.cache_hits - b0.cache_hits,
                e1.words_assembled - e0.words_assembled,
                b1.words_assembled - b0.words_assembled,
                b1.rows_pinned - b0.rows_pinned,
            ];
            mines += 1;
            for (total, d) in totals.iter_mut().zip(delta) {
                *total += d;
            }
            if idx >= window {
                steady_mines += 1;
                steady_slide_rows += slide_rows;
                for (total, d) in steady.iter_mut().zip(delta) {
                    *total += d;
                }
            }
        }
        println!("## {} ({})\n", workload.name, workload.stats());
        println!(
            "{}",
            markdown_table(
                &[
                    "read path (disk)",
                    "pages/mine",
                    "words/mine",
                    "rows pinned/mine",
                    "hits/mine"
                ],
                &[
                    vec![
                        "eager (budget 0)".to_string(),
                        (totals[0] / mines.max(1)).to_string(),
                        (totals[3] / mines.max(1)).to_string(),
                        "0".to_string(),
                        "0".to_string(),
                    ],
                    vec![
                        "pinned chunk cache".to_string(),
                        (totals[1] / mines.max(1)).to_string(),
                        (totals[4] / mines.max(1)).to_string(),
                        (totals[5] / mines.max(1)).to_string(),
                        (totals[2] / mines.max(1)).to_string(),
                    ],
                    vec![
                        "  steady state only".to_string(),
                        (steady[1] / steady_mines.max(1)).to_string(),
                        (steady[4] / steady_mines.max(1)).to_string(),
                        (steady[5] / steady_mines.max(1)).to_string(),
                        (steady[2] / steady_mines.max(1)).to_string(),
                    ],
                ]
            )
        );
        // The zero-copy disk claim, asserted: with the budget covering the
        // working set, mining assembles nothing — cold or steady.
        assert_eq!(
            totals[4], 0,
            "pinned-path mines must assemble zero words (got {})",
            totals[4]
        );
        assert!(
            totals[3] > 0,
            "the eager column must show the assembly it pays"
        );
        if steady_mines > 0 {
            assert_eq!(
                steady[4], 0,
                "steady-state pinned mines must assemble zero words"
            );
            // A chunk spans one segment's columns; bound its pages by the
            // largest batch in the stream (16 bytes of slack covers the
            // serialisation header plus word rounding).
            let max_batch_bits = workload.batches.iter().map(|b| b.len()).max().unwrap_or(0);
            let pages_per_chunk = (max_batch_bits.div_ceil(8) + 16)
                .div_ceil(fsm_storage::SegmentedWindowStore::SEGMENT_PAGE_SIZE)
                .max(1) as u64;
            let bound = steady_slide_rows * pages_per_chunk;
            assert!(
                steady[1] <= bound,
                "budgeted steady-state pages ({}) exceed the slide bound ({bound})",
                steady[1]
            );
            println!(
                "steady state: {} pages/mine and 0 words assembled for {} rows touched/slide \
                 (both bounds hold); eager re-read {:.1}x more pages and assembled {} words/mine\n",
                steady[1] / steady_mines.max(1),
                steady_slide_rows / steady_mines.max(1),
                steady[0] as f64 / steady[1].max(1) as f64,
                steady[3] / steady_mines.max(1),
            );
        }
    }
}

/// Read-amplification section: words of window data the read path
/// materialises per mine call, before/after the `WindowView` refactor.
///
/// The "before" column is measured, not modelled: [`DsMatrix::snapshot`] is
/// the retained eager read path (still what the disk backends fall back to),
/// and [`DsMatrix::read_stats`] counts the words it copies.  The view column
/// is zero by construction on the memory backend — its cost moved to the
/// slide-proportional cache maintenance, reported alongside so nothing
/// hides.
fn read_amplification(setup: &Setup) {
    println!("# Read amplification — words materialised per mine call (read path)\n");
    for (workload, _) in &setup.workloads {
        let mut matrix = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(setup.window).expect("window"),
            StorageBackend::Memory,
            workload.catalog.num_edges(),
        ))
        .expect("matrix");
        let mut mines = 0u64;
        let mut view_words = 0u64;
        let mut snapshot_words = 0u64;
        let mut splice_words = 0u64;
        let mut compact_words = 0u64;
        for batch in &workload.batches {
            let before = matrix.read_stats();
            matrix.ingest_batch(batch).expect("ingest");
            let ingested = matrix.read_stats();
            // Mine-after-slide, zero-copy path: what the view materialises.
            let view = matrix.view().expect("view");
            assert_eq!(view.num_transactions(), matrix.num_transactions());
            let viewed = matrix.read_stats();
            // The demoted eager path over the same window, for comparison.
            let snapshot = matrix.snapshot().expect("snapshot");
            assert_eq!(snapshot.num_transactions(), matrix.num_transactions());
            let snapshotted = matrix.read_stats();

            mines += 1;
            splice_words += ingested.cache_splice_words - before.cache_splice_words;
            compact_words += ingested.cache_compact_words - before.cache_compact_words;
            view_words += viewed.words_assembled - ingested.words_assembled;
            snapshot_words += snapshotted.words_assembled - viewed.words_assembled;
        }
        println!("## {} ({})\n", workload.name, workload.stats());
        println!(
            "{}",
            markdown_table(
                &["read path", "words/mine (measured)", "total words"],
                &[
                    vec![
                        "window view (zero-copy)".to_string(),
                        (view_words / mines.max(1)).to_string(),
                        view_words.to_string(),
                    ],
                    vec![
                        "  + cache splice (at ingest)".to_string(),
                        (splice_words / mines.max(1)).to_string(),
                        splice_words.to_string(),
                    ],
                    vec![
                        "  + cache compaction (amortised)".to_string(),
                        (compact_words / mines.max(1)).to_string(),
                        compact_words.to_string(),
                    ],
                    vec![
                        "eager snapshot (old default)".to_string(),
                        (snapshot_words / mines.max(1)).to_string(),
                        snapshot_words.to_string(),
                    ],
                ]
            )
        );
        let incremental = view_words + splice_words + compact_words;
        let ratio = snapshot_words as f64 / incremental.max(1) as f64;
        println!("read amplification avoided: {ratio:.1}x\n");
    }
}

/// Concurrent ingest + mine section: every slide is frozen as an epoch
/// snapshot ([`StreamMiner::snapshot`]) and mined on a worker thread while
/// ingest keeps appending on the main thread — against the stop-the-world
/// loop that mines after every slide before ingesting the next batch.
///
/// Two claims are *asserted*, not just printed: overlap really happened
/// (slides completed while a mine was in flight, counted via a shared
/// progress counter the worker reads when each mine finishes — summed over
/// the suite, since a fast workload's individual mines can beat the next
/// ingest), and there is no correctness divergence (every
/// concurrently-mined epoch's patterns are identical to the
/// stop-the-world miner's at that epoch).  The table shows
/// the third claim — ingest stall ≈ 0: the writer's per-ingest latency is
/// unchanged by the mining running underneath it, because a snapshot is
/// `Arc`-shared segments, never a copy and never a lock the writer waits on.
fn concurrent_ingest_mine(setup: &Setup) {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    println!("# Concurrent ingest + mine — epoch snapshots vs stop-the-world\n");
    let mut suite_overlap = 0u64;
    for (workload, minsup) in &setup.workloads {
        let minsup = *minsup;
        let build = || -> StreamMiner {
            StreamMinerBuilder::new()
                .algorithm(Algorithm::DirectVertical)
                .window_batches(setup.window)
                .min_support(minsup)
                .backend(StorageBackend::DiskTemp)
                .cache_budget_bytes(usize::MAX)
                .catalog(workload.catalog.clone())
                .build()
                .expect("miner")
        };

        // Stop-the-world baseline: ingest waits for every mine.
        let mut sequential = build();
        let mut seq_results = Vec::new();
        let (mut seq_ingest, mut seq_ingest_max) = (Duration::ZERO, Duration::ZERO);
        let seq_start = Instant::now();
        for batch in &workload.batches {
            let t = Instant::now();
            sequential.ingest_batch(batch).expect("ingest");
            let dt = t.elapsed();
            seq_ingest += dt;
            seq_ingest_max = seq_ingest_max.max(dt);
            seq_results.push(sequential.mine().expect("mine"));
        }
        let seq_wall = seq_start.elapsed();

        // Concurrent run: the writer never waits; a worker thread mines
        // every epoch snapshot it is handed.
        let mut concurrent = build();
        let ingested = Arc::new(AtomicU64::new(0));
        let (mut conc_ingest, mut conc_ingest_max) = (Duration::ZERO, Duration::ZERO);
        let conc_start = Instant::now();
        let (mined, overlap) = std::thread::scope(|scope| {
            let (jobs, worker_jobs) = mpsc::channel::<MinerSnapshot>();
            let progress = Arc::clone(&ingested);
            let worker = scope.spawn(move || {
                let mut mined = Vec::new();
                let mut overlap = 0u64;
                for job in worker_jobs {
                    let at_snapshot = job.last_batch_id().map_or(0, |id| id + 1);
                    let result = job.mine().expect("snapshot mine");
                    // Slides the writer completed while this mine ran.
                    overlap += progress.load(Ordering::Relaxed).saturating_sub(at_snapshot);
                    mined.push((job.last_batch_id(), result));
                }
                (mined, overlap)
            });
            for batch in &workload.batches {
                let t = Instant::now();
                concurrent.ingest_batch(batch).expect("ingest");
                let dt = t.elapsed();
                conc_ingest += dt;
                conc_ingest_max = conc_ingest_max.max(dt);
                ingested.fetch_add(1, Ordering::Relaxed);
                jobs.send(concurrent.snapshot().expect("snapshot"))
                    .expect("mining worker alive");
            }
            drop(jobs);
            worker.join().expect("mining worker panicked")
        });
        let conc_wall = conc_start.elapsed();

        // No correctness divergence: every concurrently-mined epoch equals
        // the stop-the-world patterns at that epoch.
        assert_eq!(mined.len(), seq_results.len());
        for (last, result) in &mined {
            let idx = last.expect("every mined epoch has a newest batch") as usize;
            assert!(
                result.same_patterns_as(&seq_results[idx]),
                "{}: concurrent mine diverged at epoch {idx}: {:?}",
                workload.name,
                seq_results[idx].diff(result)
            );
        }
        suite_overlap += overlap;

        let per = |d: Duration| {
            format!(
                "{:.0}",
                d.as_secs_f64() * 1e6 / workload.batches.len().max(1) as f64
            )
        };
        println!("## {} ({})\n", workload.name, workload.stats());
        println!(
            "{}",
            markdown_table(
                &[
                    "mode",
                    "wall ms (stream)",
                    "avg ingest µs",
                    "max ingest µs",
                    "epochs mined"
                ],
                &[
                    vec![
                        "stop-the-world".to_string(),
                        millis(seq_wall),
                        per(seq_ingest),
                        format!("{:.0}", seq_ingest_max.as_secs_f64() * 1e6),
                        seq_results.len().to_string(),
                    ],
                    vec![
                        "concurrent (epoch snapshots)".to_string(),
                        millis(conc_wall),
                        per(conc_ingest),
                        format!("{:.0}", conc_ingest_max.as_secs_f64() * 1e6),
                        mined.len().to_string(),
                    ],
                ]
            )
        );
        let stall = conc_ingest.as_secs_f64() / seq_ingest.as_secs_f64().max(1e-9);
        println!(
            "slides completed while a mine was in flight: {overlap}; \
             every epoch byte-identical to stop-the-world (asserted); \
             ingest stall vs stop-the-world: {stall:.2}x avg\n"
        );
    }
    // A fast workload's mines can individually finish before the next
    // ingest lands, but across the suite the overlap must be real.
    assert!(
        suite_overlap > 0,
        "no slide in the whole suite completed while a mine was in flight"
    );
    println!(
        "suite total: {suite_overlap} slides completed while a mine was in flight (asserted > 0)\n"
    );
}

/// Slide-cost section: words the incremental DSMatrix actually writes per
/// window slide, against what a full-rewrite capture (re-serialising every
/// row on every batch, the pre-segmented implementation) would have written.
///
/// The counters come from [`DsMatrix::capture_stats`], so the table reports
/// measured writes, not a model; only the full-rewrite column is computed
/// (rows x (window words + header) summed over the same slides).
fn slide_cost(setup: &Setup) {
    println!("# Slide cost — words written per window slide (capture path)\n");
    for (workload, _) in &setup.workloads {
        let mut matrix = DsMatrix::new(DsMatrixConfig::new(
            WindowConfig::new(setup.window).expect("window"),
            StorageBackend::DiskTemp,
            workload.catalog.num_edges(),
        ))
        .expect("matrix");
        let mut full_rewrite_words = 0u64;
        for batch in &workload.batches {
            matrix.ingest_batch(batch).expect("ingest");
            // What the old capture path would have written for this slide:
            // every row, re-serialised at the new window width.
            let window_words = (matrix.num_transactions().div_ceil(64) + 1) as u64;
            full_rewrite_words += matrix.num_items() as u64 * window_words;
        }
        let stats = matrix.capture_stats();
        let slides = workload.batches.len() as u64;
        println!("## {} ({})\n", workload.name, workload.stats());
        println!(
            "{}",
            markdown_table(
                &[
                    "capture",
                    "words/slide",
                    "rows touched/slide",
                    "total words"
                ],
                &[
                    vec![
                        "incremental (measured)".to_string(),
                        (stats.words_written / slides.max(1)).to_string(),
                        (stats.rows_written / slides.max(1)).to_string(),
                        stats.words_written.to_string(),
                    ],
                    vec![
                        "full rewrite (computed)".to_string(),
                        (full_rewrite_words / slides.max(1)).to_string(),
                        matrix.num_items().to_string(),
                        full_rewrite_words.to_string(),
                    ],
                ]
            )
        );
        let ratio = full_rewrite_words as f64 / stats.words_written.max(1) as f64;
        println!("write amplification avoided: {ratio:.1}x\n");
    }
}

/// Parallel-scaling run: the two vertical algorithms at 1 worker versus
/// `threads` workers over the same captured windows.
///
/// The pattern cap is two deeper than the main table's so that the
/// enumeration (the parallel region) dominates the mining call rather than
/// row loading and post-processing.
fn parallel_scaling(setup: &Setup) {
    let threads = setup.threads;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let max_len = setup.max_len.map(|m| m + 2);
    println!("# Parallel scaling — vertical engines at {threads} threads vs 1\n");
    println!("available cores: {cores}");
    if cores < threads {
        println!(
            "note: only {cores} core(s) visible to this process — speedup is \
             bounded by hardware, not by the engine; re-run on a multi-core \
             host for the real curve"
        );
    }
    println!();
    for (workload, minsup) in &setup.workloads {
        println!("## {} ({})\n", workload.name, workload.stats());
        let mut rows = Vec::new();
        for algorithm in [Algorithm::Vertical, Algorithm::DirectVertical] {
            let timing = |workers: usize| {
                let mut total = std::time::Duration::ZERO;
                let mut patterns = 0;
                for _ in 0..setup.repeats {
                    let run = run_algorithm_threaded(
                        workload,
                        algorithm,
                        setup.window,
                        *minsup,
                        max_len,
                        StorageBackend::Memory,
                        workers,
                    )
                    .expect("run");
                    total += run.mining_time;
                    patterns = run.patterns;
                }
                (total / setup.repeats, patterns)
            };
            let (sequential, patterns_seq) = timing(1);
            let (parallel, patterns_par) = timing(threads);
            assert_eq!(
                patterns_seq, patterns_par,
                "parallel run must find identical patterns"
            );
            let speedup = sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
            rows.push(vec![
                algorithm.key().to_string(),
                millis(sequential),
                millis(parallel),
                format!("{speedup:.2}x"),
                patterns_par.to_string(),
            ]);
        }
        println!(
            "{}",
            markdown_table(
                &[
                    "miner",
                    "mine ms (1 thread)",
                    &format!("mine ms ({threads} threads)"),
                    "speedup",
                    "patterns"
                ],
                &rows
            )
        );
    }
}

/// One measured BitVec kernel cell, persisted via `--json-out`.
struct KernelRow {
    kernel: &'static str,
    bits: usize,
    iters: usize,
    ns_per_op: f64,
}

/// In-binary timing of the unrolled intersection kernels (the Criterion
/// bench `bitvec_kernels` is the statistically rigorous version; this one is
/// cheap enough to run in CI and to persist as a build artifact).
fn kernel_timings() -> Vec<KernelRow> {
    use std::hint::black_box;
    use std::time::Instant;

    println!("# BitVec kernels — unrolled and_count / and_into (ns per call)\n");
    let mut out = Vec::new();
    let mut rows = Vec::new();
    for bits in [1usize << 10, 1 << 14, 1 << 17] {
        // Deterministic mixed-density operands.
        let mut state = 0x9e3779b97f4a7c15u64 ^ bits as u64;
        let mut step = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) & 1 == 1
        };
        let a = BitVec::from_bools((0..bits).map(|_| step()));
        let b = BitVec::from_bools((0..bits).map(|_| step()));
        let iters = (1 << 24) / bits.max(1);

        let start = Instant::now();
        let mut sink = 0u64;
        for _ in 0..iters {
            sink ^= black_box(&a).and_count(black_box(&b));
        }
        let count_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        black_box(sink);

        let mut buf = BitVec::new();
        let start = Instant::now();
        for _ in 0..iters {
            sink ^= black_box(&a).and_into(black_box(&b), &mut buf);
        }
        let into_ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
        black_box(sink);

        rows.push(vec![
            bits.to_string(),
            format!("{count_ns:.0}"),
            format!("{into_ns:.0}"),
        ]);
        out.push(KernelRow {
            kernel: "and_count",
            bits,
            iters,
            ns_per_op: count_ns,
        });
        out.push(KernelRow {
            kernel: "and_into",
            bits,
            iters,
            ns_per_op: into_ns,
        });
    }
    println!(
        "{}",
        markdown_table(&["bits", "and_count ns", "and_into ns"], &rows)
    );
    println!();
    out
}

/// Hand-rolled JSON (the workspace carries no serde): the kernel timings
/// with the scale and host core count they were measured at.
fn render_json(scale: usize, kernels: &[KernelRow]) -> String {
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let kernel_objects: Vec<String> = kernels
        .iter()
        .map(|r| {
            format!(
                "    {{\"kernel\": \"{}\", \"bits\": {}, \"iters\": {}, \"ns_per_op\": {:.1}}}",
                r.kernel, r.bits, r.iters, r.ns_per_op
            )
        })
        .collect();
    format!(
        "{{\n  \"scale\": {scale},\n  \"host_cores\": {host_cores},\n  \"kernels\": [\n{}\n  ]\n}}\n",
        kernel_objects.join(",\n")
    )
}
