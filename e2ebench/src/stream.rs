//! The `stream-ingest` workload: writes beside reads.
//!
//! An episode starts from an empty directory: a `DiskStore` with a 64 KiB
//! memtable, 256 answers whose lineages are chains of join blocks (the
//! shape of `workloads::streaming`), and one `d-tree(0)` maintenance pass
//! that compiles every answer. Then each round (one request of the closed
//! loop) appends 256 rows through `Database::append_writer` — each a fresh
//! variable joined to an existing variable of one of 64 touched answers —
//! makes one `Database::sync_storage` call, and runs
//! `cluster::ClusterEngine::maintain_batch` with 2 shards over a
//! `ResumablePool`. Episodes have a fixed number of rounds, so the store
//! reaches the same size however fast the code is. A pass runs a fixed
//! number of episodes, each drawing its inputs from its own seed derived
//! from the run's; a run makes whole passes, so its inputs depend on the
//! seed alone.

use std::time::{Duration, Instant};

use cluster::{ClusterBatchResult, ClusterEngine};
use dtree::CompileStats;
use events::{Clause, Dnf, LineageDelta, VarId};
use pdb::confidence::ConfidenceMethod;
use pdb::{ConfidenceEngine, Database, ResumablePool, Value};

use crate::report::{check, check_fingerprint, dtree_metrics, median, quantile, Report};
use crate::rng::{dataset_seed, SplitMix};
use crate::spans::Tracer;
use crate::{procfs, Args, Scratch};

const ANSWERS: usize = 256;
const TOUCHED: usize = 64;
const APPENDS_PER_ANSWER: usize = 4;
const ROWS_PER_ROUND: usize = TOUCHED * APPENDS_PER_ANSWER;
const ROUNDS_PER_EPISODE: usize = 100;
const EPISODES_PER_PASS: usize = 3;
/// Rounds between two throw-away set-ups, which give `setup_s` samples
/// spread over the episode.
const SETUP_EVERY: usize = 10;
const MEMTABLE: usize = 64 * 1024;
const SHARDS: usize = 2;
const INITIAL_CLAUSES: usize = 12;
const BLOCK_CLAUSES: usize = 3;
const TABLE: &str = "stream";

/// One planned row: answer, probability, and the index (into the answer's
/// variables, resolved after the push) of the partner it joins.
struct Row {
    answer: usize,
    p: f64,
    partner: usize,
}

struct Episode {
    db: Database,
    lineages: Vec<Dnf>,
    vars: Vec<Vec<VarId>>,
    pool: ResumablePool,
    rng: SplitMix,
}

/// Set-up of one episode: empty directory → initial rows → first
/// maintenance pass compiling every answer.
fn set_up(
    seed: u64,
    scratch: &Scratch,
    dir: &str,
    cluster: &ClusterEngine,
) -> (Episode, ClusterBatchResult) {
    let dir = scratch.dir(dir);
    let mut db = Database::open_disk(&dir, MEMTABLE).expect("open the benchmark's disk store");
    let mut rng = SplitMix::new(seed);
    let mut vars = Vec::with_capacity(ANSWERS);
    let mut lineages = Vec::with_capacity(ANSWERS);
    let mut writer = db.tuple_writer(TABLE, &["answer", "seq"]);
    for k in 0..ANSWERS {
        let mut answer_vars: Vec<VarId> = Vec::new();
        let mut clauses = Vec::with_capacity(INITIAL_CLAUSES);
        while clauses.len() < INITIAL_CLAUSES {
            let c = BLOCK_CLAUSES.min(INITIAL_CLAUSES - clauses.len());
            let mut block = Vec::with_capacity(c + 1);
            for _ in 0..=c {
                let seq = answer_vars.len() + block.len();
                let p = rng.range(0.1, 0.35);
                let v = writer.push(vec![Value::Int(k as i64), Value::Int(seq as i64)], p);
                block.push(v.expect("stream probabilities are below 1"));
            }
            clauses.extend(block.windows(2).map(Clause::from_bools));
            answer_vars.extend(block);
        }
        lineages.push(Dnf::from_clauses(clauses));
        vars.push(answer_vars);
    }
    db.sync_storage();
    let mut pool = ResumablePool::new(ANSWERS);
    let deltas: Vec<Option<LineageDelta>> = vec![None; ANSWERS];
    let first =
        cluster.maintain_batch(&lineages, &deltas, db.space(), Some(db.origins()), &mut pool);
    (Episode { db, lineages, vars, pool, rng }, first)
}

/// Draws the next round's rows: `TOUCHED` distinct answers, each getting
/// `APPENDS_PER_ANSWER` rows.
fn plan(ep: &mut Episode) -> Vec<Row> {
    let mut order: Vec<usize> = (0..ANSWERS).collect();
    let mut rows = Vec::with_capacity(ROWS_PER_ROUND);
    for i in 0..TOUCHED {
        let j = i + ep.rng.below(ANSWERS - i);
        order.swap(i, j);
        let k = order[i];
        for a in 0..APPENDS_PER_ANSWER {
            let partner = ep.rng.below(ep.vars[k].len() + a);
            rows.push(Row { answer: k, p: ep.rng.range(0.2, 0.5), partner });
        }
    }
    rows
}

/// Per-layer accumulators over the traced rounds.
#[derive(Debug, Default)]
struct Layers {
    rounds: usize,
    append_ns: u128,
    append_max_s: f64,
    sync_ns: u128,
    maintain_ns: u128,
    busy_ns: u128,
    shard_max_ns: u128,
    shard_mean_ns: f64,
    stolen: usize,
    sched_rounds: usize,
    degraded: usize,
    resumed: usize,
    executed: usize,
    dtree: CompileStats,
    cache_hits: u64,
    cache_misses: u64,
}

/// One round: append, grow the lineages, sync, maintain.
struct Round {
    out: ClusterBatchResult,
    wall: f64,
    append: Duration,
    push_max: f64,
    sync: Duration,
}

fn round(tracer: &mut Tracer, cluster: &ClusterEngine, ep: &mut Episode, rows: &[Row]) -> Round {
    tracer.next_request();
    let t = Instant::now();
    let root = tracer.enter("request");
    let open = tracer.enter("storage.append");
    let append = Instant::now();
    let mut fresh = Vec::with_capacity(rows.len());
    let mut push_max = 0.0f64;
    {
        let mut writer = ep.db.append_writer(TABLE);
        for row in rows {
            let seq = Value::Int(writer.rows() as i64);
            let push = Instant::now();
            let v = writer.push(vec![Value::Int(row.answer as i64), seq], row.p);
            push_max = push_max.max(push.elapsed().as_secs_f64());
            fresh.push(v.expect("stream probabilities are below 1"));
        }
    }
    let append = append.elapsed();
    tracer.exit(open);
    let deltas = tracer.span("events.delta", || grow(ep, rows, &fresh));
    let sync = Instant::now();
    tracer.span("storage.sync", || ep.db.sync_storage());
    let sync = sync.elapsed();
    let out = tracer.span("cluster.maintain", || {
        cluster.maintain_batch(
            &ep.lineages,
            &deltas,
            ep.db.space(),
            Some(ep.db.origins()),
            &mut ep.pool,
        )
    });
    tracer.exit(root);
    Round { out, wall: t.elapsed().as_secs_f64(), append, push_max, sync }
}

pub fn run(args: &Args, scratch: &Scratch, report: &mut Report) {
    let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(SHARDS);
    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::new();
    let mut walls: Vec<(bool, f64)> = Vec::new();
    let mut layers = Layers::default();
    let mut fingerprint = String::new();
    let mut storage = None;
    let mut converged = 0u64;
    let mut early_unconverged = 0usize;
    let mut rows_synced = 0usize;
    let (mut wchar_rounds, mut wchar_rows) = (0u64, 0usize);
    let mut episodes = 0usize;
    let mut passes = 0usize;
    let mut measured = 0.0;

    // Whole passes of `EPISODES_PER_PASS` episodes, each on its own seed;
    // another pass starts only while one more fits in the time left. A
    // traced run traces every other round, so the untraced rounds between
    // give the tracing overhead.
    while passes == 0 || measured * (passes + 1) as f64 / passes as f64 <= args.seconds {
        for e in 0..EPISODES_PER_PASS {
            let seed = dataset_seed(args.seed, e);
            let episode = Instant::now();
            let (mut ep, first) = set_up(seed, scratch, &format!("stream-{episodes}"), &cluster);
            setup_s.push(episode.elapsed().as_secs_f64());
            if first.degraded_count() > 0 || !first.all_converged() {
                report.fail(format!(
                    "episode {episodes}: the initial d-tree(0) pass did not converge"
                ));
            }
            let mut dtree_work = 0usize;
            let mut last = first;
            for r in 0..ROUNDS_PER_EPISODE {
                if r % SETUP_EVERY == SETUP_EVERY / 2 {
                    let t = Instant::now();
                    drop(set_up(seed, scratch, "stream-extra", &cluster));
                    setup_s.push(t.elapsed().as_secs_f64());
                    scratch.remove("stream-extra");
                }
                let traced = args.trace && r % 2 == 0;
                let rows = plan(&mut ep);
                let wchar_before = procfs::wchar();
                tracer.set_enabled(traced);
                let done = round(&mut tracer, &cluster, &mut ep, &rows);
                tracer.set_enabled(false);
                walls.push((traced, done.wall));
                rows_synced += rows.len();
                if let (Some(a), Some(b)) = (procfs::wchar(), wchar_before) {
                    wchar_rounds += a - b;
                    wchar_rows += rows.len();
                }

                let out = &done.out;
                report.attempted += out.results.len() as u64;
                for (i, res) in out.results.iter().enumerate() {
                    if let Some(reason) = res.degraded {
                        report.fail(format!(
                            "episode {episodes} round {r} answer {i}: degraded ({reason})"
                        ));
                    } else if res.converged {
                        converged += 1;
                    } else {
                        // No deadline: every non-converged result is early.
                        early_unconverged += 1;
                    }
                }
                dtree_work +=
                    out.results.iter().filter_map(|res| res.stats).map(|s| s.work()).sum::<usize>();

                if traced {
                    layers.rounds += 1;
                    layers.append_ns += done.append.as_nanos();
                    layers.append_max_s = layers.append_max_s.max(done.push_max);
                    layers.sync_ns += done.sync.as_nanos();
                    layers.maintain_ns += out.wall.as_nanos();
                    let compute: Vec<u128> =
                        out.shards.iter().map(|s| s.compute.as_nanos()).collect();
                    layers.busy_ns += compute.iter().sum::<u128>();
                    layers.shard_max_ns += compute.iter().copied().max().unwrap_or(0);
                    layers.shard_mean_ns +=
                        compute.iter().sum::<u128>() as f64 / compute.len().max(1) as f64;
                    layers.stolen += out.total_stolen();
                    layers.sched_rounds += out.rounds;
                    layers.degraded += out.degraded_count();
                    layers.resumed += out.total_resumed();
                    layers.executed += out.shards.iter().map(|s| s.executed).sum::<usize>();
                    for s in out.results.iter().filter_map(|res| res.stats.as_ref()) {
                        layers.dtree.merge(s);
                    }
                    layers.cache_hits += out.cache.hits;
                    layers.cache_misses += out.cache.misses;
                }
                last = done.out;
            }

            // Reference: an unbudgeted batch over the final lineages, off the
            // clock.
            measured += episode.elapsed().as_secs_f64();
            let exact = ConfidenceEngine::new(ConfidenceMethod::DTreeExact).with_threads(1);
            let reference =
                exact.confidence_batch(&ep.lineages, ep.db.space(), Some(ep.db.origins()));
            for (i, (res, p)) in last.results.iter().zip(&reference.results).enumerate() {
                if let Err(e) = check(res, &ConfidenceMethod::DTreeExact, p.estimate) {
                    report.fail(format!("episode {episodes} answer {i}: {e}"));
                }
            }
            if episodes == 0 {
                let s = ep.db.storage_stats();
                let estimates: Vec<String> = last
                    .results
                    .iter()
                    .map(|res| format!("{:016x}", res.estimate.to_bits()))
                    .collect();
                fingerprint = format!(
                    "flushes={} compactions={} wal_rotations={} work={dtree_work} estimates={}\n",
                    s.flushes,
                    s.compactions,
                    s.wal_rotations,
                    estimates.join(",")
                );
                storage = Some(s);
                report.note(format!(
                    "{} suspended frontiers pooled after the last round",
                    ep.pool.len()
                ));
            }
            drop(ep);
            scratch.remove(&format!("stream-{episodes}"));
            episodes += 1;
        }
        passes += 1;
    }

    let all: Vec<f64> = walls.iter().map(|(_, w)| *w).collect();
    let total: f64 = all.iter().sum();
    report.note(format!(
        "{EPISODES_PER_PASS} episodes × {passes} passes × {ROUNDS_PER_EPISODE} rounds = {} rounds of {ROWS_PER_ROUND} rows, seed {}",
        all.len(),
        args.seed
    ));
    report.note(format!(
        "ingest_rows_per_s {:.1} rows/s (synced rows ÷ Σ round time)",
        rows_synced as f64 / total
    ));
    check_fingerprint(
        report,
        &crate::out_dir(),
        &format!("{}-{}", args.workload, args.seed),
        &fingerprint,
    );
    report.spread_note("setup_s", &setup_s);
    if !args.trace {
        report.metric("request_p50_s", median(&all));
        report.metric("request_p90_s", quantile(&all, 0.9));
        report.metric("requests_per_s", all.len() as f64 / total);
        report.metric("converged_fraction", converged as f64 / report.attempted.max(1) as f64);
        report.metric("setup_s", median(&setup_s));
        report.metric_opt("rss_peak_mb", procfs::rss_peak_mb());
        return;
    }

    crate::write_spans(args, &tracer, report);
    let n = layers.rounds.max(1) as f64;
    let attribution = tracer.attribution("request");
    let med = |want: bool| {
        median(&walls.iter().filter(|(t, _)| *t == want).map(|(_, w)| *w).collect::<Vec<_>>())
    };
    let storage = storage.expect("one episode ran");
    report.metric("storage.append_s", layers.append_ns as f64 * 1e-9 / n);
    report.metric("storage.append_max_s", layers.append_max_s);
    report.metric("storage.sync_s", layers.sync_ns as f64 * 1e-9 / n);
    report.metric("storage.flushes", storage.flushes as f64);
    report.metric("storage.compactions", storage.compactions as f64);
    report.metric("storage.wal_rotations", storage.wal_rotations as f64);
    report.metric_opt(
        "storage.bytes_written_per_row",
        (wchar_rows > 0).then(|| wchar_rounds as f64 / wchar_rows as f64),
    );
    report.metric("events.delta_s", attribution.mean_self_s("events.delta"));
    report.metric("cluster.maintain_s", layers.maintain_ns as f64 * 1e-9 / n);
    report.metric("cluster.busy_s", layers.busy_ns as f64 * 1e-9 / n);
    report.metric("cluster.imbalance", layers.shard_max_ns as f64 / layers.shard_mean_ns.max(1.0));
    report.metric("cluster.stolen", layers.stolen as f64 / n);
    report.metric("cluster.rounds", layers.sched_rounds as f64 / n);
    report.metric("cluster.degraded", layers.degraded as f64);
    report.metric("resume.resumed", layers.resumed as f64 / n);
    report.metric("resume.executed", layers.executed as f64 / n);
    dtree_metrics(report, &layers.dtree, n, layers.cache_hits, layers.cache_misses);
    attribution.report_residual(report);
    report.metric("trace.overhead", med(true) / med(false) - 1.0);
    report.metric("check.early_unconverged", early_unconverged as f64);
}

/// Appends each pushed row's clause (fresh variable ∧ partner) to its
/// answer's lineage and returns one delta slot per answer.
fn grow(ep: &mut Episode, rows: &[Row], fresh: &[VarId]) -> Vec<Option<LineageDelta>> {
    let mut new_clauses: Vec<Vec<Clause>> = vec![Vec::new(); ANSWERS];
    for (row, &v) in rows.iter().zip(fresh) {
        let vars = &mut ep.vars[row.answer];
        let partner = vars[row.partner];
        new_clauses[row.answer].push(Clause::from_bools(&[v, partner]));
        vars.push(v);
    }
    new_clauses
        .into_iter()
        .enumerate()
        .map(|(k, clauses)| {
            if clauses.is_empty() {
                return None;
            }
            let grown = ep.lineages[k].or(&Dnf::from_clauses(clauses));
            let delta =
                LineageDelta::between(&ep.lineages[k], &grown).expect("or-growth is append-only");
            ep.lineages[k] = grown;
            (!delta.is_empty()).then_some(delta)
        })
        .collect()
}
