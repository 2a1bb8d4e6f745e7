//! Summary statistics, the correctness check, and the printed report.

use std::fs;
use std::path::Path;
use std::time::UNIX_EPOCH;

use dtree::CompileStats;
use pdb::confidence::{ConfidenceMethod, ConfidenceResult};

/// The one float tolerance of every reference check: reference and result
/// come from different algorithms, so they may differ in the last bits.
pub const TOLERANCE: f64 = 1e-9;

/// Linear-interpolation quantile of `values` (need not be sorted).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Checks one result against its reference probability: the interval must
/// contain the reference, and a converged d-tree result must meet its ε.
/// A degraded result is a failure whatever its interval.
pub fn check(r: &ConfidenceResult, method: &ConfidenceMethod, p_ref: f64) -> Result<(), String> {
    if let Some(reason) = r.degraded {
        return Err(format!("degraded ({reason})"));
    }
    if !(r.lower - TOLERANCE <= p_ref && p_ref <= r.upper + TOLERANCE) {
        return Err(format!("reference {p_ref} outside [{}, {}]", r.lower, r.upper));
    }
    if r.converged {
        let err = (r.estimate - p_ref).abs();
        let allowed = match method {
            ConfidenceMethod::DTreeExact => 0.0,
            ConfidenceMethod::DTreeAbsolute(e) => *e,
            ConfidenceMethod::DTreeRelative(e) => e * p_ref,
            // The Monte-Carlo guarantee is the interval checked above.
            _ => f64::INFINITY,
        };
        if err > allowed + TOLERANCE {
            return Err(format!("estimate {} misses ε: |error| {err} > {allowed}", r.estimate));
        }
    }
    Ok(())
}

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("request_p50_s", "s"),
    ("request_p90_s", "s"),
    ("requests_per_s", "1/s"),
    ("converged_fraction", "ratio"),
    ("setup_s", "s"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics every traced run prints, with their units. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("storage.append_s", "s"),
    ("storage.append_max_s", "s"),
    ("storage.sync_s", "s"),
    ("storage.flushes", "count"),
    ("storage.compactions", "count"),
    ("storage.wal_rotations", "count"),
    ("storage.bytes_written_per_row", "B"),
    ("storage.scan_s", "s"),
    ("query.evaluate_s", "s"),
    ("query.clauses_out", "count"),
    ("query.answers_out", "count"),
    ("query.tuples_per_clause", "ratio"),
    ("events.delta_s", "s"),
    ("arena.intern_s", "s"),
    ("engine.batch_s", "s"),
    ("engine.compute_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.dedup_saved", "count"),
    ("dtree.work", "count"),
    ("dtree.xor_nodes", "count"),
    ("dtree.exact_leaves", "count"),
    ("dtree.closed_leaves", "count"),
    ("dtree.max_depth", "count"),
    ("dtree.exact_hit_ratio", "ratio"),
    ("dtree.cache_hit_rate", "ratio"),
    ("montecarlo.aconf_s", "s"),
    ("montecarlo.width_mean", "prob"),
    ("cluster.maintain_s", "s"),
    ("cluster.busy_s", "s"),
    ("cluster.imbalance", "ratio"),
    ("cluster.stolen", "count"),
    ("cluster.rounds", "count"),
    ("cluster.degraded", "count"),
    ("resume.resumed", "count"),
    ("resume.executed", "count"),
    ("trace.request_self_s", "s"),
    ("trace.residual_max", "ratio"),
    ("trace.overhead", "ratio"),
    ("check.early_unconverged", "count"),
];

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run prints: metrics by name with unit, the correctness verdict,
/// and free-form notes for the human-readable part.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    /// Metrics this platform cannot measure (no `/proc/self`).
    unmeasured: Vec<String>,
}

impl Report {
    pub fn new() -> Self {
        Report { correct: true, ..Report::default() }
    }

    /// Sets a metric named in [`END_TO_END`] or [`PER_LAYER`].
    pub fn metric(&mut self, name: &str, value: f64) {
        let (name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not declared"));
        self.metrics.retain(|m| m.name != *name);
        self.metrics.push(Metric { name: (*name).to_owned(), value, unit });
    }

    /// A metric that may be unavailable on this platform: reported as not
    /// measured instead of as zero.
    pub fn metric_opt(&mut self, name: &str, value: Option<f64>) {
        match value {
            Some(v) => self.metric(name, v),
            None => {
                self.note(format!("{name}: not measured on this platform"));
                self.unmeasured.push(name.to_owned());
            }
        }
    }

    /// Fills in the declared metrics of the run's kind: a missing
    /// end-to-end metric is a bug; a missing per-layer metric is a layer
    /// the workload does not exercise, and reads 0. Metrics the platform
    /// cannot measure are left out, never reported as 0.
    pub fn complete(&mut self, traced: bool) {
        let declared = if traced { PER_LAYER } else { END_TO_END };
        let mut ordered = Vec::with_capacity(declared.len());
        let mut problems = Vec::new();
        for (name, unit) in declared {
            match self.metrics.iter().find(|m| m.name == *name) {
                Some(m) if !traced && !m.value.is_finite() => {
                    problems.push(format!("end-to-end metric {name} is {}", m.value))
                }
                Some(m) => ordered.push(m.clone()),
                None if self.unmeasured.iter().any(|u| u == name) => {}
                None if traced => {
                    ordered.push(Metric { name: (*name).to_owned(), value: 0.0, unit })
                }
                None => problems.push(format!("end-to-end metric {name} was not measured")),
            }
        }
        self.metrics = ordered;
        for p in problems {
            self.broken(p);
        }
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Notes how the samples behind a median metric spread within the run.
    pub fn spread_note(&mut self, name: &str, values: &[f64]) {
        self.note(format!(
            "{name} over {} samples: p10 {:.6}, p50 {:.6}, p90 {:.6}",
            values.len(),
            quantile(values, 0.1),
            median(values),
            quantile(values, 0.9)
        ));
    }

    /// Records a failed operation; the run still goes on.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("FAILED: {what}");
        }
    }

    /// A broken benchmark invariant (determinism drift, a missing
    /// reference): the whole run is marked incorrect.
    pub fn broken(&mut self, what: String) {
        eprintln!("BROKEN: {what}");
        self.correct = false;
    }

    /// Prints the human-readable report, then the JSON result as the last
    /// line of standard output.
    pub fn print(&self) {
        for n in &self.notes {
            println!("# {n}");
        }
        for m in &self.metrics {
            println!("{:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

/// The d-tree counters, per request.
pub fn dtree_metrics(
    report: &mut Report,
    d: &CompileStats,
    n: f64,
    cache_hits: u64,
    cache_misses: u64,
) {
    report.metric("dtree.work", d.work() as f64 / n);
    report.metric("dtree.xor_nodes", d.xor_nodes as f64 / n);
    report.metric("dtree.exact_leaves", d.exact_leaves as f64 / n);
    report.metric("dtree.closed_leaves", d.closed_leaves as f64 / n);
    report.metric("dtree.max_depth", d.max_depth as f64);
    report.metric(
        "dtree.exact_hit_ratio",
        d.exact_cache_hits as f64 / (d.exact_cache_hits + d.exact_evaluations).max(1) as f64,
    );
    report.metric(
        "dtree.cache_hit_rate",
        cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
    );
}

/// Cross-run determinism check: the counts a fixed seed produces (no
/// timing in them) are stored under `dir` on the first run of this
/// executable with that seed, and every later run must reproduce them.
pub fn check_fingerprint(report: &mut Report, dir: &Path, key: &str, counts: &str) {
    let exe = std::env::current_exe().and_then(fs::metadata);
    let Ok(exe) = exe else { return };
    let stamp = exe
        .modified()
        .ok()
        .and_then(|t| t.duration_since(UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    let path = dir.join(format!("fingerprint-{key}-{}-{stamp}.txt", exe.len()));
    match fs::read_to_string(&path) {
        Ok(old) if old == counts => report.note(format!("determinism: counts match {}", path.display())),
        Ok(old) => report.broken(format!("determinism: counts drift from an earlier run with the same seed:\n  then {old}\n  now  {counts}")),
        Err(_) => {
            let _ = fs::create_dir_all(dir).and_then(|()| fs::write(&path, counts));
        }
    }
}
