//! Property-based tests of delta-aware confidence maintenance: on randomly
//! generated append streams, maintaining a lineage through
//! [`ConfidenceEngine::maintain_batch`] — truncated frontiers pooled between
//! rounds, deltas absorbed in place — must land on the same answer as
//! compiling the final formula from scratch, for every confidence method and
//! with the subformula cache on or off. Destructive (non-append) edits must
//! fail closed instead of silently reusing a stale frontier.
//!
//! Unbudgeted `d-tree(0)` maintenance pools settled exact results: the
//! contract tests pin which items snapshot and which recompile, through both
//! `ConfidenceEngine::maintain_batch` and `cluster::ClusterEngine::maintain_batch`,
//! and a soundness proptest checks every maintained interval against the
//! possible-world enumeration.

use std::time::Duration;

use cluster::{ClusterBatchResult, ClusterEngine};
use events::{Clause, Dnf, LineageDelta, ProbabilitySpace, VarId};
use pdb::confidence::{ConfidenceBudget, ConfidenceMethod, ConfidenceResult};
use pdb::{ConfidenceEngine, MaintainResult, ResumablePool};
use proptest::prelude::*;

/// Slack allowed between a maintained interval and the probability the
/// possible-world enumeration computes: the two sum the same products in
/// different orders.
const SOUNDNESS_TOL: f64 = 1e-9;

/// A random append stream: an initial DNF over `probs.len()` variables, then
/// `rounds` of appended clauses. Each appended clause joins one fresh
/// variable (probability `fresh_p`) with existing variables of the answer, so
/// deltas genuinely dirty the suspended decomposition.
#[derive(Debug, Clone)]
struct StreamSpec {
    probs: Vec<f64>,
    clauses: Vec<Vec<usize>>,
    rounds: Vec<Vec<(f64, Vec<usize>)>>,
}

fn stream_spec() -> impl Strategy<Value = StreamSpec> {
    let probs = prop::collection::vec(0.1f64..0.9, 3..7);
    probs.prop_flat_map(|probs| {
        let nv = probs.len();
        let clause = prop::collection::vec(0..nv, 1..3);
        let clauses = prop::collection::vec(clause, 2..6);
        let append = (0.1f64..0.9, prop::collection::vec(0..nv, 0..3));
        let round = prop::collection::vec(append, 1..3);
        let rounds = prop::collection::vec(round, 1..4);
        (Just(probs), clauses, rounds).prop_map(|(probs, clauses, rounds)| StreamSpec {
            probs,
            clauses,
            rounds,
        })
    })
}

/// Materialises the stream: the shared space, the initial lineage, and one
/// grown lineage plus its append-only delta per round.
fn build_stream(spec: &StreamSpec) -> (ProbabilitySpace, Dnf, Vec<(Dnf, LineageDelta)>) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        spec.probs.iter().enumerate().map(|(i, &p)| space.add_bool(format!("x{i}"), p)).collect();
    let initial = Dnf::from_clauses(
        spec.clauses
            .iter()
            .map(|c| Clause::from_bools(&c.iter().map(|&i| vars[i]).collect::<Vec<_>>())),
    );
    let mut lineage = initial.clone();
    let mut steps = Vec::new();
    for (r, round) in spec.rounds.iter().enumerate() {
        let mut grown = lineage.clone();
        for (a, (fresh_p, existing)) in round.iter().enumerate() {
            let fresh = space.add_bool(format!("s{r}_{a}"), *fresh_p);
            let mut atoms = vec![fresh];
            for &i in existing {
                if !atoms.contains(&vars[i]) {
                    atoms.push(vars[i]);
                }
            }
            grown = grown.or(&Dnf::from_clauses(vec![Clause::from_bools(&atoms)]));
        }
        let delta = LineageDelta::between(&lineage, &grown).expect("or-growth is append-only");
        lineage = grown.clone();
        steps.push((grown, delta));
    }
    (space, initial, steps)
}

fn methods() -> Vec<ConfidenceMethod> {
    vec![
        ConfidenceMethod::DTreeExact,
        ConfidenceMethod::DTreeAbsolute(1e-13),
        ConfidenceMethod::DTreeRelative(1e-13),
        ConfidenceMethod::KarpLuby { epsilon: 0.3, delta: 0.1 },
        ConfidenceMethod::NaiveMonteCarlo { epsilon: 0.3 },
    ]
}

fn engine(method: ConfidenceMethod, cache: bool, budget: Option<u64>) -> ConfidenceEngine {
    let mut e = ConfidenceEngine::new(method)
        .with_seed(0x5eed)
        .with_budget(ConfidenceBudget { timeout: None, max_work: budget });
    if !cache {
        e = e.without_cache();
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Delta-maintained confidence equals from-scratch compilation of the
    /// final formula within 1e-12, for every method and cache setting.
    ///
    /// Intermediate rounds run under a tiny work budget so d-tree frontiers
    /// truncate and get pooled — the final round then *resumes* those
    /// delta-dirtied frontiers to convergence. With ε = 1e-13 error bounds,
    /// maintained and from-scratch answers are each within 1e-13 of the
    /// exact probability, hence within 2e-13 < 1e-12 of each other; the
    /// Monte-Carlo methods recompile with per-index seeds, so they are
    /// bit-identical by construction.
    #[test]
    fn maintained_equals_from_scratch(spec in stream_spec()) {
        let (space, initial, steps) = build_stream(&spec);
        let (last, rest) = steps.split_last().expect("at least one round");
        for method in methods() {
            for cache in [true, false] {
                let trickle = engine(method.clone(), cache, Some(2));
                let converge = engine(method.clone(), cache, None);
                let mut pool = ResumablePool::new(8);
                trickle.maintain_batch(std::slice::from_ref(&initial), &[None], &space, None, &mut pool);
                for (grown, delta) in rest {
                    trickle.maintain_batch(
                        std::slice::from_ref(grown),
                        &[Some(delta.clone())],
                        &space,
                        None,
                        &mut pool,
                    );
                }
                let maintained = converge.maintain_batch(
                    std::slice::from_ref(&last.0),
                    &[Some(last.1.clone())],
                    &space,
                    None,
                    &mut pool,
                );
                prop_assert!(maintained.all_converged(), "{method:?} did not converge");
                let scratch = converge.confidence_batch(std::slice::from_ref(&last.0), &space, None);
                let m = maintained.results[0].estimate;
                let s = scratch.results[0].estimate;
                prop_assert!(
                    (m - s).abs() <= 1e-12,
                    "{method:?} cache={cache}: maintained {m} vs scratch {s}"
                );
                if !method.is_deterministic() {
                    // MC maintenance recompiles every item with its
                    // index-derived seed — bit-identical to the plain batch.
                    prop_assert_eq!(m.to_bits(), s.to_bits());
                }
            }
        }
    }

    /// Destructive edits are not representable as deltas: removing or
    /// rewriting a clause makes [`LineageDelta::between`] return `None`, so
    /// callers are forced onto the recompile path.
    #[test]
    fn destructive_edits_yield_no_delta(spec in stream_spec()) {
        let (_, initial, _) = build_stream(&spec);
        prop_assume!(initial.len() > 1);
        let shrunk = Dnf::from_clauses(initial.clauses()[1..].to_vec());
        prop_assert!(LineageDelta::between(&initial, &shrunk).is_none());
        // Append-after-delete is still not an append overall.
        let mutated = shrunk.or(&Dnf::from_clauses(vec![initial.clauses()[0].clone()]));
        if mutated != initial {
            prop_assert!(LineageDelta::between(&initial, &mutated).is_none());
        }
    }
}

/// A chain lineage long enough that a `max_work`-budgeted d-tree run
/// truncates (small chains converge within a couple of decomposition
/// steps, leaving nothing to pool).
fn chain_fixture() -> (ProbabilitySpace, Vec<events::VarId>, Dnf) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        (0..34).map(|i| space.add_bool(format!("x{i}"), 0.15 + 0.02 * i as f64)).collect();
    let lineage = Dnf::from_clauses((0..22).map(|i| Clause::from_bools(&[vars[i], vars[i + 1]])));
    (space, vars, lineage)
}

/// An in-place space invalidation (the destructive-edit signal) fails
/// closed: pooled handles are discarded and every item recompiles against
/// the current space instead of reporting poisoned bounds.
#[test]
fn invalidated_space_fails_closed_to_recompilation() {
    let (mut space, _, lineage) = chain_fixture();
    let exact =
        dtree::exact_probability(&lineage, &space, &dtree::CompileOptions::default()).probability;

    let trickle = engine(ConfidenceMethod::DTreeExact, true, Some(4));
    let mut pool = ResumablePool::new(4);
    trickle.maintain_batch(std::slice::from_ref(&lineage), &[None], &space, None, &mut pool);
    assert_eq!(pool.len(), 1, "budgeted run should truncate and pool a frontier");

    space.invalidate();
    let converge = engine(ConfidenceMethod::DTreeExact, true, None);
    let r =
        converge.maintain_batch(std::slice::from_ref(&lineage), &[None], &space, None, &mut pool);
    assert_eq!(r.recompiled, 1);
    assert_eq!(r.refreshed + r.snapshots, 0);
    assert!(r.all_converged());
    assert!((r.results[0].estimate - exact).abs() < 1e-9);
}

/// The refresh path is genuinely exercised: after budget-truncated rounds,
/// a later round resumes pooled frontiers (refreshed/snapshot, not
/// recompiled) and still converges to the exact probability.
#[test]
fn delta_rounds_resume_pooled_frontiers() {
    let (mut space, vars, mut lineage) = chain_fixture();

    let trickle = engine(ConfidenceMethod::DTreeRelative(1e-6), true, Some(4));
    let mut pool = ResumablePool::new(4);
    trickle.maintain_batch(std::slice::from_ref(&lineage), &[None], &space, None, &mut pool);
    assert_eq!(pool.len(), 1, "budgeted run should truncate and pool a frontier");

    let fresh = space.add_bool("s0", 0.3);
    let grown = lineage.or(&Dnf::from_clauses(vec![Clause::from_bools(&[fresh, vars[0]])]));
    let delta = LineageDelta::between(&lineage, &grown).expect("append-only");
    lineage = grown;

    let converge = engine(ConfidenceMethod::DTreeRelative(1e-6), true, None);
    let r = converge.maintain_batch(&[lineage.clone()], &[Some(delta)], &space, None, &mut pool);
    assert_eq!(r.recompiled, 0, "pooled frontier must be reused");
    assert_eq!(r.refreshed + r.snapshots, 1);
    assert!(r.all_converged());
    let exact =
        dtree::exact_probability(&lineage, &space, &dtree::CompileOptions::default()).probability;
    assert!((r.results[0].estimate - exact).abs() < 1e-6 * exact + 1e-12);
}

/// Six answers whose lineages are overlapping 2-literal chains, small
/// enough that unbudgeted exact evaluation is instant.
fn answers_fixture() -> (ProbabilitySpace, Vec<VarId>, Vec<Dnf>) {
    let mut space = ProbabilitySpace::new();
    let vars: Vec<_> =
        (0..16).map(|i| space.add_bool(format!("x{i}"), 0.15 + 0.04 * i as f64)).collect();
    let lineages = (0..6)
        .map(|k| {
            Dnf::from_clauses((0..8).map(|i| Clause::from_bools(&[vars[i + k], vars[i + k + 1]])))
        })
        .collect();
    (space, vars, lineages)
}

/// One unbudgeted `d-tree(0)` maintenance round through the flat engine and
/// through a 2-shard cluster, each over its own pool.
fn maintain_both(
    lineages: &[Dnf],
    deltas: &[Option<LineageDelta>],
    space: &ProbabilitySpace,
    pools: &mut (ResumablePool, ResumablePool),
) -> (MaintainResult, ClusterBatchResult) {
    let engine = ConfidenceEngine::new(ConfidenceMethod::DTreeExact);
    let cluster = ClusterEngine::new(ConfidenceMethod::DTreeExact).with_shards(2);
    (
        engine.maintain_batch(lineages, deltas, space, None, &mut pools.0),
        cluster.maintain_batch(lineages, deltas, space, None, &mut pools.1),
    )
}

fn executed(out: &ClusterBatchResult) -> usize {
    out.shards.iter().map(|s| s.executed).sum()
}

fn assert_bit_identical(got: &[ConfidenceResult], want: &[ConfidenceResult], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.estimate.to_bits(), w.estimate.to_bits(), "{what} item {i}");
        assert_eq!(g.lower.to_bits(), w.lower.to_bits(), "{what} item {i}");
        assert_eq!(g.upper.to_bits(), w.upper.to_bits(), "{what} item {i}");
        assert_eq!(g.converged, w.converged, "{what} item {i}");
    }
}

/// The settled-result contract of unbudgeted `d-tree(0)` maintenance, on
/// both maintenance paths: round 1 pools one settled exact result per item;
/// an unchanged round is all zero-work snapshots; touched items (and only
/// those) recompile, bit-identical to a plain batch over the grown
/// lineages; and after an in-place space invalidation every item fails
/// closed into recompilation.
#[test]
fn unbudgeted_exact_maintenance_pools_settled_results() {
    let (mut space, vars, mut lineages) = answers_fixture();
    let n = lineages.len();
    let mut pools = (ResumablePool::new(n), ResumablePool::new(n));
    let none: Vec<Option<LineageDelta>> = vec![None; n];
    let batch = ConfidenceEngine::new(ConfidenceMethod::DTreeExact);

    // Round 1: first sight — everything compiles and pools a settled result.
    let (e1, c1) = maintain_both(&lineages, &none, &space, &mut pools);
    assert_eq!((e1.recompiled, e1.refreshed, e1.snapshots), (n, 0, 0));
    assert_eq!(executed(&c1), n);
    let plain = batch.confidence_batch(&lineages, &space, None);
    assert_bit_identical(&e1.results, &plain.results, "engine round 1");
    assert_bit_identical(&c1.results, &plain.results, "cluster round 1");
    for pool in [&pools.0, &pools.1] {
        assert_eq!(pool.len(), n, "every converged exact item pools a handle");
        for (i, r) in plain.results.iter().enumerate() {
            let h = pool.get(i).expect("pooled");
            assert!(h.is_converged() && h.is_current(&space));
            assert_eq!(h.bounds(), (r.lower, r.upper));
            assert_eq!(h.total_steps(), 0, "a settled result keeps no d-tree");
        }
    }

    // Round 2: nothing changed — pure snapshots, no work, no scheduling.
    let (e2, c2) = maintain_both(&lineages, &none, &space, &mut pools);
    assert_eq!((e2.snapshots, e2.recompiled, e2.refreshed), (n, 0, 0));
    assert_eq!(executed(&c2), 0);
    for r in e2.results.iter().chain(&c2.results) {
        assert_eq!(r.elapsed, Duration::ZERO);
        assert_eq!(r.stats.map(|s| s.work()), Some(0), "snapshots report no work");
    }
    assert_bit_identical(&e2.results, &plain.results, "engine round 2");
    assert_bit_identical(&c2.results, &plain.results, "cluster round 2");

    // Round 3: append to items 1 and 4 — they alone recompile.
    let touched = [1usize, 4];
    let mut deltas: Vec<Option<LineageDelta>> = vec![None; n];
    for &k in &touched {
        let fresh = space.add_bool(format!("t{k}"), 0.3);
        let grown = lineages[k].or(&Dnf::from_clauses(vec![
            Clause::from_bools(&[fresh, vars[k]]),
            Clause::from_bools(&[fresh]),
        ]));
        deltas[k] = Some(LineageDelta::between(&lineages[k], &grown).expect("append-only"));
        lineages[k] = grown;
    }
    let (e3, c3) = maintain_both(&lineages, &deltas, &space, &mut pools);
    assert_eq!((e3.recompiled, e3.snapshots, e3.refreshed), (touched.len(), n - touched.len(), 0));
    assert_eq!(executed(&c3), touched.len());
    let plain = batch.confidence_batch(&lineages, &space, None);
    assert_bit_identical(&e3.results, &plain.results, "engine round 3");
    assert_bit_identical(&c3.results, &plain.results, "cluster round 3");
    for &k in &touched {
        assert!(e3.results[k].stats.is_some_and(|s| s.work() > 0), "item {k} recompiled");
    }
    assert_eq!((pools.0.len(), pools.1.len()), (n, n), "recompiled items pool fresh results");

    // Round 4: an in-place invalidation stales every pooled result.
    space.invalidate();
    let (e4, c4) = maintain_both(&lineages, &none, &space, &mut pools);
    assert_eq!((e4.recompiled, e4.snapshots), (n, 0), "stale results must recompile");
    assert_eq!(executed(&c4), n);
    let plain = batch.confidence_batch(&lineages, &space, None);
    assert_bit_identical(&e4.results, &plain.results, "engine round 4");
    assert_bit_identical(&c4.results, &plain.results, "cluster round 4");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness against the possible-world oracle: on random append
    /// streams, every interval unbudgeted `d-tree(0)` maintenance reports —
    /// through both the flat engine and the 2-shard cluster, for a streamed
    /// item and for an unchanged one served from the pool — contains the
    /// probability `events::world` enumerates, after every round.
    #[test]
    fn maintained_exact_intervals_contain_the_enumerated_probability(spec in stream_spec()) {
        let (space, initial, steps) = build_stream(&spec);
        let mut pools = (ResumablePool::new(2), ResumablePool::new(2));
        let mut lineages = vec![initial.clone(), initial];
        let mut deltas: Vec<Option<LineageDelta>> = vec![None, None];
        for r in 0..=steps.len() {
            let (e, c) = maintain_both(&lineages, &deltas, &space, &mut pools);
            for (i, lineage) in lineages.iter().enumerate() {
                let p = lineage.exact_probability_enumeration(&space);
                for (path, got) in [("engine", &e.results[i]), ("cluster", &c.results[i])] {
                    prop_assert!(got.converged, "{path} round {r} item {i}: {got:?}");
                    prop_assert!(
                        got.lower - SOUNDNESS_TOL <= p && p <= got.upper + SOUNDNESS_TOL,
                        "{path} round {r} item {i}: {p} outside [{}, {}]",
                        got.lower,
                        got.upper
                    );
                }
            }
            if let Some((grown, delta)) = steps.get(r) {
                lineages[0] = grown.clone();
                deltas[0] = Some(delta.clone());
            }
        }
    }
}
