//! The two TPC-H workloads: `tpch-tractable` (Fig. 6 queries on a
//! disk-backed store) and `tpch-hard` (Fig. 7 #P-hard queries on the heap
//! store, d-tree against `aconf`).
//!
//! One client runs the workload's (query, method) operations in a fixed
//! cycle with no think time (closed loop). A request is
//! `ConjunctiveQuery::evaluate` plus `ConfidenceEngine::confidence_batch`
//! over all of that query's answers. A pass runs one cycle on each of a
//! fixed number of datasets generated from the run's seed, so one run's
//! figures average over inputs rather than resting on one draw of the
//! generator; a run makes whole passes, so its inputs depend on the seed
//! alone, however fast the code is.
//!
//! An operation may run on only every `n`-th dataset of a pass, so that
//! cheap operations sample many datasets while the costly ones still fit
//! in the run; the cycle on a dataset sends the operations that run on it.
//! The latency metrics are over the requests as sent; `converged_fraction`
//! averages over operations, so that each counts once whatever its number
//! of requests.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use dtree::CompileStats;
use events::{Dnf, LineageArena};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod};
use pdb::{
    dedup_lineages, BatchResult, ConfidenceEngine, ConjunctiveQuery, Database, QueryAnswer, Value,
};
use workloads::tpch::{TpchConfig, TpchDatabase, TpchQuery};

use crate::report::{check, check_fingerprint, dtree_metrics, median, quantile, Report};
use crate::rng::dataset_seed;
use crate::spans::Tracer;
use crate::{procfs, Args, Scratch};

/// Set-ups timed per cycle: more `setup_s` samples than datasets, spread
/// over the run.
const SETUPS_PER_CYCLE: usize = 3;

/// Fixed shape of one TPC-H workload.
pub struct TpchSpec {
    pub queries: Vec<TpchQuery>,
    pub methods: Vec<ConfidenceMethod>,
    /// `lineitem` rows per dataset (the generator emits `6000 × scale
    /// factor`).
    pub lineitem_rows: usize,
    /// `Some(bytes)` for a `DiskStore` with that memtable budget, `None` for
    /// the in-memory `HeapStore`.
    pub memtable: Option<usize>,
    /// Per-request deadline, far above the slowest request.
    pub deadline: Duration,
    /// Datasets a run generates from its seed, one cycle each per pass;
    /// enough that one pass makes at least 100 requests, so that 10 lie
    /// beyond the p90.
    pub datasets: usize,
    /// An operation runs on the datasets whose index is a multiple of
    /// this; 1 runs it on every dataset.
    pub every: fn(TpchQuery, &ConfidenceMethod) -> usize,
}

pub fn tractable() -> TpchSpec {
    let mut queries = TpchQuery::tractable();
    queries.extend(TpchQuery::iq());
    TpchSpec {
        queries,
        methods: vec![ConfidenceMethod::DTreeRelative(0.01)],
        lineitem_rows: 1500,
        memtable: Some(64 * 1024),
        deadline: Duration::from_secs(60),
        datasets: 16,
        every: |_, _| 1,
    }
}

pub fn hard() -> TpchSpec {
    TpchSpec {
        queries: TpchQuery::hard(),
        methods: vec![
            ConfidenceMethod::DTreeRelative(0.01),
            ConfidenceMethod::DTreeRelative(0.05),
            ConfidenceMethod::DTreeAbsolute(0.01),
            ConfidenceMethod::KarpLuby { epsilon: 0.05, delta: 1e-4 },
        ],
        lineitem_rows: 150,
        memtable: None,
        deadline: Duration::from_secs(60),
        datasets: 48,
        // B9's four requests take ~5 s per dataset, the twelve others
        // ~0.25 s together, so B9 runs on 8 datasets and its slow, steady
        // `d-tree(abs 0.01)` on 2. A quantile is steady only inside a dense
        // run of latencies: B20's and B21's d-tree requests (< 0.5 ms) run
        // on every 2nd dataset, so that the p50 falls among the B2 and `B20
        // × aconf` requests (1–20 ms), and with 26 of 458 requests B9's
        // (0.3–3.7 s), the p90 falls among the `B21 × aconf` ones
        // (0.1–0.3 s), with 45 requests beyond it.
        every: |query, method| match (query, method) {
            (TpchQuery::B9, ConfidenceMethod::DTreeAbsolute(_)) => 24,
            (TpchQuery::B9, _) => 6,
            (TpchQuery::B20 | TpchQuery::B21, m) if m.is_deterministic() => 2,
            _ => 1,
        },
    }
}

/// One (query, method) operation of the cycle.
struct Op {
    query: usize,
    method: ConfidenceMethod,
    engine: ConfidenceEngine,
    /// See [`TpchSpec::every`].
    every: usize,
}

impl Op {
    fn runs_on(&self, dataset: usize) -> bool {
        dataset.is_multiple_of(self.every)
    }
}

/// What one operation's requests returned over the run.
#[derive(Debug, Default, Clone)]
struct Tally {
    /// Request latencies, in seconds.
    walls: Vec<f64>,
    answers: u64,
    converged: u64,
    /// Answers returned with `converged=false` before the deadline.
    early_unconverged: u64,
}

struct Dataset {
    db: Database,
    /// Reference probability per answer, in evaluation order, per query;
    /// empty for a query no operation runs on this dataset.
    references: Vec<Vec<(Vec<Value>, f64)>>,
}

/// Per-layer accumulators over the traced requests.
#[derive(Debug, Default)]
struct Layers {
    requests: usize,
    clauses_out: usize,
    answers_out: usize,
    rows_scanned: usize,
    scan_ns: u128,
    intern_ns: u128,
    batch_ns: u128,
    compute_ns: u128,
    dedup_saved: usize,
    dtree: CompileStats,
    cache_hits: u64,
    cache_misses: u64,
    aconf_ns: u128,
    aconf_items: usize,
    aconf_width: f64,
}

/// Exact reference probabilities of every answer: SPROUT's safe plans for
/// the hierarchical queries, an unbudgeted `d-tree(0)` for the rest.
fn references(query: TpchQuery, db: &Database) -> Vec<(Vec<Value>, f64)> {
    let cq = query.query();
    if let Some(refs) = pdb::sprout::answer_confidences(&cq, db) {
        return refs;
    }
    let answers = cq.evaluate(db);
    let lineages: Vec<&Dnf> = answers.iter().map(|a| &a.lineage).collect();
    let exact = ConfidenceEngine::new(ConfidenceMethod::DTreeExact).with_threads(1);
    let batch = exact.confidence_batch(&lineages, db.space(), Some(db.origins()));
    assert!(
        batch.all_converged(),
        "the unbudgeted d-tree(0) reference of {} must converge",
        query.name()
    );
    answers.into_iter().zip(batch.results).map(|(a, r)| (a.head, r.estimate)).collect()
}

/// One timed request: evaluate, then the confidence batch over every answer.
fn request(
    tracer: &mut Tracer,
    cq: &ConjunctiveQuery,
    op: &Op,
    db: &Database,
) -> (Vec<QueryAnswer>, BatchResult, f64) {
    tracer.next_request();
    let t = Instant::now();
    let root = tracer.enter("request");
    let answers: Vec<QueryAnswer> = tracer.span("query.evaluate", || cq.evaluate(db));
    let batch = tracer.span("engine.batch", || {
        let lineages: Vec<&Dnf> = answers.iter().map(|a| &a.lineage).collect();
        op.engine.confidence_batch(&lineages, db.space(), Some(db.origins()))
    });
    tracer.exit(root);
    (answers, batch, t.elapsed().as_secs_f64())
}

/// The counts of one request that must repeat exactly for a fixed seed.
fn counts(answers: &[QueryAnswer], batch: &BatchResult) -> String {
    let clauses: usize = answers.iter().map(|a| a.lineage.len()).sum();
    let work: usize = batch.results.iter().filter_map(|r| r.stats).map(|s| s.work()).sum();
    let estimates: Vec<String> =
        batch.results.iter().map(|r| format!("{:016x}", r.estimate.to_bits())).collect();
    format!("clauses={clauses} work={work} estimates={}", estimates.join(","))
}

/// Set-up of one dataset: empty directory → populated store. Returns the
/// store and its set-up time.
fn set_up(spec: &TpchSpec, seed: u64, scratch: &Scratch, dir: &str) -> (Database, f64) {
    let config = TpchConfig::new(spec.lineitem_rows as f64 / 6000.0).with_seed(seed);
    let dir = scratch.dir(dir);
    let t = Instant::now();
    let mut db = match spec.memtable {
        Some(budget) => Database::open_disk(&dir, budget).expect("open the benchmark's disk store"),
        None => Database::new(),
    };
    TpchDatabase::populate(&config, &mut db);
    (db, t.elapsed().as_secs_f64())
}

pub fn run(spec: &TpchSpec, args: &Args, scratch: &Scratch, report: &mut Report) {
    let queries: Vec<ConjunctiveQuery> = spec.queries.iter().map(TpchQuery::query).collect();
    let budget = ConfidenceBudget { timeout: Some(spec.deadline), max_work: None };
    let mut ops = Vec::new();
    for query in 0..spec.queries.len() {
        for method in &spec.methods {
            let engine = ConfidenceEngine::new(method.clone())
                .with_budget(budget.clone())
                .with_threads(1)
                .with_seed(args.seed);
            let every = (spec.every)(spec.queries[query], method);
            ops.push(Op { query, method: method.clone(), engine, every });
        }
    }
    let label = |op: &Op| format!("{} × {}", spec.queries[op.query].name(), op.method.label());

    // The closed loop runs whole passes, one cycle per dataset; another
    // pass starts only while one more fits in the time left. Every cycle
    // times `SETUPS_PER_CYCLE` set-ups of its dataset, so `setup_s` samples
    // the whole run: the first pass keeps its first set-up as the dataset,
    // every other one is thrown away. References are computed off the
    // clock, and so is a warm-up that sends each operation that runs on
    // every dataset once, untimed, before the first timed request. A
    // traced run runs every request twice, untraced and traced in
    // alternating order, so the two latencies compare the same work: their
    // difference is the tracing overhead.
    let mut datasets: Vec<Dataset> = Vec::with_capacity(spec.datasets);
    let mut setup_s = Vec::new();
    let (mut setup_rows, mut setup_wchar) = (0usize, Some(0u64));
    let mut storage = None;
    let mut fingerprint = String::new();
    let (mut reference_s, mut warmup_s) = (0.0, 0.0);
    let mut tracer = Tracer::new(args.trace);
    let mut tallies: Vec<Tally> = vec![Tally::default(); ops.len()];
    let mut traced_walls: Vec<f64> = Vec::new();
    let mut plain_walls: Vec<f64> = Vec::new();
    let mut first: BTreeMap<(usize, usize), String> = BTreeMap::new();
    let mut layers = Layers::default();
    let mut hits_by_query: BTreeMap<usize, (usize, usize)> = BTreeMap::new();
    let mut cycles = 0usize;
    let mut passes = 0usize;
    let mut measured = 0.0;
    while passes == 0 || measured * (passes + 1) as f64 / passes as f64 <= args.seconds {
        for j in 0..spec.datasets {
            let cycle = Instant::now();
            let off_clock = reference_s + warmup_s;
            for i in 0..SETUPS_PER_CYCLE {
                let dir = format!("tpch-{j}-{passes}-{i}");
                let wchar_before = procfs::wchar();
                let (db, secs) = set_up(spec, dataset_seed(args.seed, j), scratch, &dir);
                setup_s.push(secs);
                setup_rows += db.total_tuples();
                setup_wchar =
                    setup_wchar.zip(procfs::wchar().zip(wchar_before)).map(|(w, (a, b))| w + a - b);
                if j < datasets.len() || i > 0 {
                    drop(db);
                    scratch.remove(&dir);
                    continue;
                }
                let s = db.storage_stats();
                if j == 0 {
                    storage = Some(s);
                    let _ = writeln!(
                        fingerprint,
                        "flushes={} compactions={} wal_rotations={}",
                        s.flushes, s.compactions, s.wal_rotations
                    );
                }
                let t = Instant::now();
                let references = (0..spec.queries.len())
                    .map(|q| {
                        if ops.iter().any(|op| op.query == q && op.runs_on(j)) {
                            references(spec.queries[q], &db)
                        } else {
                            Vec::new()
                        }
                    })
                    .collect();
                reference_s += t.elapsed().as_secs_f64();
                datasets.push(Dataset { db, references });
            }
            let ds = &datasets[j];
            if cycles == 0 {
                let t = Instant::now();
                for op in ops.iter().filter(|op| op.every == 1) {
                    std::hint::black_box(request(&mut tracer, &queries[op.query], op, &ds.db));
                }
                warmup_s += t.elapsed().as_secs_f64();
            }

            for (k, op) in ops.iter().enumerate() {
                if !op.runs_on(j) {
                    continue;
                }
                let cq = &queries[op.query];
                let tally = &mut tallies[k];
                let traced_first = args.trace && (cycles + k) % 2 == 1;
                let mut traced_run = None;
                if traced_first {
                    tracer.set_enabled(true);
                    traced_run = Some(request(&mut tracer, cq, op, &ds.db));
                }
                tracer.set_enabled(false);
                let (answers, batch, wall) = request(&mut tracer, cq, op, &ds.db);
                if args.trace && !traced_first {
                    tracer.set_enabled(true);
                    traced_run = Some(request(&mut tracer, cq, op, &ds.db));
                    tracer.set_enabled(false);
                }
                tally.walls.push(wall);

                // Correctness, outside the timed request.
                let refs = &ds.references[op.query];
                report.attempted += answers.len() as u64;
                tally.answers += answers.len() as u64;
                if answers.len() != refs.len() {
                    report.fail(format!(
                        "{}: {} answers, the reference has {}",
                        label(op),
                        answers.len(),
                        refs.len()
                    ));
                }
                for ((a, r), (head, p_ref)) in answers.iter().zip(&batch.results).zip(refs) {
                    if &a.head != head {
                        report.fail(format!("{}: answer {:?} has no reference", label(op), a.head));
                    } else if let Err(e) = check(r, &op.method, *p_ref) {
                        report.fail(format!("{} answer {:?}: {e}", label(op), a.head));
                    }
                    if r.converged {
                        tally.converged += 1;
                    } else if r.elapsed < spec.deadline {
                        tally.early_unconverged += 1;
                        if passes == 0 {
                            report.note(format!(
                            "known defect: dataset {j} {} returned converged=false after {:.3} s, before the {} s deadline, width {:e}",
                            label(op),
                            r.elapsed.as_secs_f64(),
                            spec.deadline.as_secs(),
                            r.upper - r.lower
                        ));
                        }
                    }
                }
                for s in batch.results.iter().filter_map(|r| r.stats) {
                    let e = hits_by_query.entry(op.query).or_default();
                    e.0 += s.exact_cache_hits;
                    e.1 += s.exact_evaluations;
                }

                // Determinism: the same (dataset, op) repeats its counts.
                let c = counts(&answers, &batch);
                match first.get(&(j, k)) {
                    None => {
                        if j == 0 {
                            let _ = writeln!(fingerprint, "{}: {c}", label(op));
                        }
                        first.insert((j, k), c);
                    }
                    Some(c0) if *c0 != c => report.broken(format!(
                        "{} on dataset {j}: counts drift within the run: {c0} then {c}",
                        label(op)
                    )),
                    Some(_) => {}
                }

                if let Some((t_answers, t_batch, t_wall)) = traced_run {
                    plain_walls.push(wall);
                    traced_walls.push(t_wall);
                    probe(&mut tracer, &mut layers, ds, cq, op, &t_answers, &t_batch);
                }
            }
            cycles += 1;
            measured += cycle.elapsed().as_secs_f64() - (reference_s + warmup_s - off_clock);
        }
        passes += 1;
    }
    report.note(format!(
        "references for {} datasets computed in {reference_s:.2} s, off the clock",
        datasets.len()
    ));
    let storage = storage.expect("one dataset was set up");
    let setup_wchar = setup_wchar.map(|w| w as f64 / setup_rows as f64);

    for (op, t) in ops.iter().zip(&tallies) {
        report.note(format!(
            "{:<22} p50 {:>10.6} s over {} requests",
            label(op),
            median(&t.walls),
            t.walls.len()
        ));
    }
    fig7_table(spec, &ops, &tallies, &hits_by_query, report);
    report.note(format!(
        "{} requests of {} ops over {passes} passes of {} datasets, {} lineitem rows per dataset, seed {}",
        tallies.iter().map(|t| t.walls.len()).sum::<usize>(),
        ops.len(),
        datasets.len(),
        spec.lineitem_rows,
        args.seed
    ));
    check_fingerprint(
        report,
        &crate::out_dir(),
        &format!("{}-{}", args.workload, args.seed),
        &fingerprint,
    );

    report.spread_note("setup_s", &setup_s);
    if !args.trace {
        let all: Vec<f64> = tallies.iter().flat_map(|t| t.walls.iter().copied()).collect();
        let converged: f64 =
            tallies.iter().map(|t| t.converged as f64 / t.answers.max(1) as f64).sum();
        report.metric("request_p50_s", median(&all));
        report.metric("request_p90_s", quantile(&all, 0.9));
        report.metric("requests_per_s", all.len() as f64 / all.iter().sum::<f64>());
        report.metric("converged_fraction", converged / ops.len() as f64);
        report.metric("setup_s", median(&setup_s));
        report.metric_opt("rss_peak_mb", procfs::rss_peak_mb());
        return;
    }

    crate::write_spans(args, &tracer, report);
    let n = layers.requests.max(1) as f64;
    let attribution = tracer.attribution("request");
    report.metric("storage.append_s", median(&setup_s));
    report.metric("storage.flushes", storage.flushes as f64);
    report.metric("storage.compactions", storage.compactions as f64);
    report.metric("storage.wal_rotations", storage.wal_rotations as f64);
    report.metric_opt("storage.bytes_written_per_row", setup_wchar);
    report.metric("storage.scan_s", layers.scan_ns as f64 * 1e-9 / n);
    report.metric("query.evaluate_s", attribution.mean_self_s("query.evaluate"));
    report.metric("query.clauses_out", layers.clauses_out as f64 / n);
    report.metric("query.answers_out", layers.answers_out as f64 / n);
    report.metric(
        "query.tuples_per_clause",
        layers.rows_scanned as f64 / layers.clauses_out.max(1) as f64,
    );
    report.metric("arena.intern_s", layers.intern_ns as f64 * 1e-9 / n);
    report.metric("engine.batch_s", attribution.mean_self_s("engine.batch"));
    report.metric("engine.compute_s", layers.compute_ns as f64 * 1e-9 / n);
    report.metric(
        "engine.overhead_s",
        (layers.batch_ns as f64 - layers.compute_ns as f64) * 1e-9 / n,
    );
    report.metric("engine.dedup_saved", layers.dedup_saved as f64 / n);
    dtree_metrics(report, &layers.dtree, n, layers.cache_hits, layers.cache_misses);
    report.metric("montecarlo.aconf_s", layers.aconf_ns as f64 * 1e-9 / n);
    report.metric("montecarlo.width_mean", layers.aconf_width / layers.aconf_items.max(1) as f64);
    attribution.report_residual(report);
    report.metric("trace.overhead", median(&traced_walls) / median(&plain_walls) - 1.0);
    // Per cycle that sends every operation once.
    let early: f64 =
        tallies.iter().map(|t| t.early_unconverged as f64 / t.walls.len().max(1) as f64).sum();
    report.metric("check.early_unconverged", early);
}

/// Probes and counters of one traced request. The probes run outside the
/// request's spans, under a request id of their own, so they do not
/// inflate its time.
fn probe(
    tracer: &mut Tracer,
    layers: &mut Layers,
    ds: &Dataset,
    cq: &ConjunctiveQuery,
    op: &Op,
    answers: &[QueryAnswer],
    batch: &BatchResult,
) {
    layers.requests += 1;
    layers.clauses_out += answers.iter().map(|a| a.lineage.len()).sum::<usize>();
    layers.answers_out += answers.len();
    layers.batch_ns += batch.wall.as_nanos();
    layers.compute_ns += batch.total_compute().as_nanos();
    for s in batch.results.iter().filter_map(|r| r.stats.as_ref()) {
        layers.dtree.merge(s);
    }
    layers.cache_hits += batch.cache.hits;
    layers.cache_misses += batch.cache.misses;
    if !op.method.is_deterministic() {
        for r in &batch.results {
            layers.aconf_ns += r.elapsed.as_nanos();
            layers.aconf_items += 1;
            layers.aconf_width += r.upper - r.lower;
        }
    }

    tracer.set_enabled(true);
    tracer.next_request();
    let relations: BTreeSet<&str> = cq.subgoals.iter().map(|g| g.relation.as_str()).collect();
    let t = Instant::now();
    for rel in relations {
        layers.rows_scanned += tracer.span("probe.storage.scan", || ds.db.scan(rel).count());
    }
    layers.scan_ns += t.elapsed().as_nanos();
    let lineages: Vec<&Dnf> = answers.iter().map(|a| &a.lineage).collect();
    let t = Instant::now();
    tracer.span("probe.arena.intern", || {
        let mut arena = LineageArena::new();
        for l in &lineages {
            std::hint::black_box(arena.intern(l));
        }
    });
    layers.intern_ns += t.elapsed().as_nanos();
    tracer.set_enabled(false);
    let (_, work) = dedup_lineages(&op.method, &lineages);
    layers.dedup_saved += lineages.len() - work.len();
}

/// The paper's Fig. 7 comparison re-measured on this run: per hard query,
/// d-tree against `aconf` at equal ε = 0.05, next to `d-tree(rel 0.01)`
/// and the exact-cache hit ratio of its d-tree runs.
fn fig7_table(
    spec: &TpchSpec,
    ops: &[Op],
    tallies: &[Tally],
    hits: &BTreeMap<usize, (usize, usize)>,
    report: &mut Report,
) {
    let p50 = |query: usize, label: &str| -> Option<f64> {
        ops.iter()
            .zip(tallies)
            .find(|(op, _)| op.query == query && op.method.label() == label)
            .map(|(_, t)| median(&t.walls))
    };
    for (q, query) in spec.queries.iter().enumerate() {
        let (Some(dt), Some(ac)) = (p50(q, "d-tree(rel 0.05)"), p50(q, "aconf(0.05)")) else {
            continue;
        };
        let rel01 = p50(q, "d-tree(rel 0.01)").unwrap_or(f64::NAN);
        let (h, e) = hits.get(&q).copied().unwrap_or_default();
        report.note(format!(
            "fig7 {:>4}: d-tree(rel 0.05) {dt:.4} s vs aconf(0.05) {ac:.4} s ({}); d-tree(rel 0.01) {rel01:.4} s; dtree.exact_hit_ratio {:.3}",
            query.name(),
            if dt > ac { "d-tree slower" } else { "d-tree faster" },
            h as f64 / (h + e).max(1) as f64
        ));
    }
}
