"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines as
they happen. The experiment criteria (4, 5, 8) use frozen seeds and the
frozen per-kind clustering parameters; tolerances are fixed here and nowhere
else.
"""

from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import as_pairs, make_dataset, random_dataset
from distclust import (
    CLUSTER_PARAMS,
    GlobalParams,
    Labeling,
    RepresentativeRecord,
    SelectionState,
    StopCriterion,
    evaluate,
    global_dbscan,
    reference_dbscan,
    relabel_site,
    transmission_cost,
)
from distclust.datagen import dataset_spec, generate
from distclust.pipeline import ExperimentConfig, run_pipeline, sweep

FROZEN_SEED = 20260809


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")


def canonical(labels_in_order):
    """Renumber cluster ids by first occurrence; noise stays 0."""
    mapping = {}
    out = []
    for v in labels_in_order:
        if v == 0:
            out.append(0)
            continue
        if v not in mapping:
            mapping[v] = len(mapping) + 1
        out.append(mapping[v])
    return out


def test_criterion_1_degenerate_reduction():
    with criterion(1, "per-point reductions equal the centralized clustering exactly"):
        rng = np.random.default_rng(FROZEN_SEED)
        for trial in range(50):
            n = int(rng.integers(50, 2001))
            ds = random_dataset(rng, n, clustered=bool(rng.integers(0, 2)))
            params = GlobalParams(float(rng.uniform(0.3, 2.0)), int(rng.integers(2, 11)))
            reps = [RepresentativeRecord(p, 0.0, 1, 0, k) for k, p in enumerate(ds)]
            got = global_dbscan(reps, params)
            ref = reference_dbscan(ds, params)
            got_seq = [got.labels[(0, k)] for k in range(len(ds))]
            ref_seq = [ref.labels[p.id] for p in ds]
            assert canonical(got_seq) == canonical(ref_seq), f"trial {trial} (n={n})"


def test_criterion_2_greedy_matches_naive_oracle():
    with criterion(2, "greedy selection equals the from-definition greedy"):
        rng = np.random.default_rng(FROZEN_SEED + 1)
        for trial in range(30):
            n = int(rng.integers(30, 301))
            ds = random_dataset(rng, n)
            eps = float(rng.uniform(0.8, 2.0))
            variant = trial % 3
            if variant == 0:
                stop = StopCriterion.size(int(rng.integers(1, 41)))
            elif variant == 1:
                stop = StopCriterion.fraction(float(rng.uniform(0.02, 0.2)))
            else:
                stop = StopCriterion.error_bound(0.0)
            state = SelectionState(ds, eps)
            records = list(state.run(stop))
            expected, expected_owner = oracles.naive_select(
                as_pairs(ds), eps, size_bound=stop.resolve_count(n), theta=stop.theta,
            )
            assert [r.point.id for r in records] == [i for i, _, _ in expected], f"trial {trial}"
            assert [r.cov_cnt for r in records] == [c for _, _, c in expected]
            assert [r.seq for r in records] == list(range(len(records)))
            for r, (_, rad, _) in zip(records, expected):
                assert r.cov_rad == pytest.approx(rad, rel=1e-9, abs=1e-12)
            assert state.coverage_owner == expected_owner


def test_criterion_3_incremental_scores_match_definition():
    with criterion(3, "maintained scores equal from-scratch recomputation every round"):
        rng = np.random.default_rng(FROZEN_SEED + 2)
        for trial in range(20):
            n = int(rng.integers(20, 151))
            ds = random_dataset(rng, n)
            eps = float(rng.uniform(0.8, 2.0))
            pairs = as_pairs(ds)
            nbrs = oracles.neighbor_table(pairs, eps)
            state = SelectionState(ds, eps)
            rounds = int(rng.integers(3, 26))
            for rec in state.run(StopCriterion.size(rounds)):
                maintained = state.candidate_scores()
                expected = oracles.def3_scores_fast(nbrs, eps, state.coverage_owner.keys(), maintained.keys())
                for oid, value in maintained.items():
                    assert value == pytest.approx(expected[oid], rel=1e-9, abs=1e-12), (
                        f"trial {trial}, candidate {oid}"
                    )


def test_criterion_4_quality_vs_budget_trend_dataset_a():
    with criterion(4, "dataset A: quality non-decreasing over budgets, >= 0.90 at 5%"):
        spec = dataset_spec("A", seed=FROZEN_SEED)
        params = CLUSTER_PARAMS["A"]
        fractions = [0.01, 0.02, 0.05, 0.1, 0.2]
        cfg = ExperimentConfig(dataset=spec, n_sites=4, epsilon=params.epsilon,
                               min_pts=params.min_pts, budgets=tuple(fractions), seed=FROZEN_SEED)
        rows = sweep(cfg, site_counts=[4])
        qualities = {row.fraction: row.quality for row in rows}
        for lo, hi in zip(fractions, fractions[1:]):
            assert qualities[hi] >= qualities[lo] - 0.03, (
                f"quality dropped from {qualities[lo]:.4f} at {lo} to {qualities[hi]:.4f} at {hi}"
            )
        assert qualities[0.05] >= 0.90, f"quality at 5% is {qualities[0.05]:.4f}"


def test_criterion_5_quality_vs_sites_trend_dataset_b():
    with criterion(5, "dataset B at 13%: quality non-increasing in sites, >= 0.85 at 12"):
        spec = dataset_spec("B", seed=FROZEN_SEED)
        params = CLUSTER_PARAMS["B"]
        cfg = ExperimentConfig(dataset=spec, n_sites=2, epsilon=params.epsilon,
                               min_pts=params.min_pts, budgets=(0.13,), seed=FROZEN_SEED)
        site_counts = [2, 4, 8, 12]
        rows = sweep(cfg, site_counts=site_counts)
        qualities = {row.n_sites: row.quality for row in rows}
        for lo, hi in zip(site_counts, site_counts[1:]):
            assert qualities[hi] <= qualities[lo] + 0.03, (
                f"quality rose from {qualities[lo]:.4f} at {lo} sites "
                f"to {qualities[hi]:.4f} at {hi} sites"
            )
        assert qualities[12] >= 0.85, f"quality at 12 sites is {qualities[12]:.4f}"


def test_criterion_6_transmission_cost_arithmetic():
    with criterion(6, "cost model arithmetic is exact"):
        n = 10_000
        cost_17 = transmission_cost(int(0.17 * n), n)
        cost_05 = transmission_cost(int(0.05 * n), n)
        assert cost_17.bytes_distributed / cost_05.bytes_distributed == 3.4
        expected_speedup = 100 / (0.05 * 108)
        assert cost_05.speedup == pytest.approx(expected_speedup, rel=1e-12)
        assert cost_05.bytes_full == 1_000_000


# --------------------------------------------------------------- criterion 7
# Module invariants as generated-input property tests, >= 100 cases each.

coords_strategy = st.lists(
    st.tuples(st.floats(0, 20), st.floats(0, 20)), min_size=1, max_size=30
)
eps_strategy = st.floats(0.3, 5.0)


def test_criterion_7a_coverage_partition():
    @settings(max_examples=100, deadline=None)
    @given(coords=coords_strategy, eps=eps_strategy)
    def prop(coords, eps):
        ds = make_dataset(coords)
        state = SelectionState(ds, eps)
        records = list(state.run(StopCriterion.error_bound(0.0)))
        # Exhaustion covers everything, each object exactly once.
        assert state.coverage_owner.keys() == {p.id for p in ds}
        assert sum(r.cov_cnt for r in records) == len(ds)
        by_rep = {r.seq: r for r in records}
        for oid, seq in state.coverage_owner.items():
            rep = by_rep[seq]
            assert oracles.dist(ds.coords[oid].tolist(), rep.point.coords) <= eps

    with criterion("7a", "coverage partition under exhaustive selection"):
        prop()


def test_criterion_7b_cov_cnt_sum_bounded():
    @settings(max_examples=100, deadline=None)
    @given(coords=coords_strategy, eps=eps_strategy, bound=st.integers(1, 40))
    def prop(coords, eps, bound):
        ds = make_dataset(coords)
        state = SelectionState(ds, eps)
        records = list(state.run(StopCriterion.size(bound)))
        total = sum(r.cov_cnt for r in records)
        assert total == len(state.coverage_owner) <= len(ds)
        if state.coverage_owner.keys() == {p.id for p in ds}:
            assert total == len(ds)

    with criterion("7b", "sum of cov_cnt never exceeds the site size"):
        prop()


def test_criterion_7c_cov_rad_bounded_by_epsilon():
    @settings(max_examples=100, deadline=None)
    @given(coords=coords_strategy, eps=eps_strategy, bound=st.integers(1, 40))
    def prop(coords, eps, bound):
        ds = make_dataset(coords)
        for rec in SelectionState(ds, eps).run(StopCriterion.size(bound)):
            assert 0.0 <= rec.cov_rad <= eps

    with criterion("7c", "cov_rad <= epsilon on every record"):
        prop()


def test_criterion_7d_prefix_stability():
    @settings(max_examples=100, deadline=None)
    @given(coords=coords_strategy, eps=eps_strategy,
           m=st.integers(1, 10), extra=st.integers(0, 20))
    def prop(coords, eps, m, extra):
        ds = make_dataset(coords)
        short = list(SelectionState(ds, eps).run(StopCriterion.size(m)))
        longer = list(SelectionState(ds, eps).run(StopCriterion.size(m + extra)))
        assert longer[: len(short)] == short

    with criterion("7d", "streams are prefix-stable in the size bound"):
        prop()


def test_criterion_7e_dyn_rep_q_monotone():
    @settings(max_examples=100, deadline=None)
    @given(coords=coords_strategy, eps=eps_strategy)
    def prop(coords, eps):
        ds = make_dataset(coords)
        state = SelectionState(ds, eps)
        previous = state.candidate_scores()
        for _ in state.run(StopCriterion.size(min(len(ds), 8))):
            current = state.candidate_scores()
            for oid, value in current.items():
                assert value <= previous[oid] + 1e-12
            previous = current

    with criterion("7e", "dynamic quality never increases across rounds"):
        prop()


def test_criterion_7f_label_totality():
    @settings(max_examples=100, deadline=None)
    @given(coords=coords_strategy, eps=eps_strategy, bound=st.integers(1, 20),
           data=st.data())
    def prop(coords, eps, bound, data):
        ds = make_dataset(coords)
        state = SelectionState(ds, eps, site=2)
        records = list(state.run(StopCriterion.size(bound)))
        labels = {
            (2, r.seq): data.draw(st.integers(0, 3), label=f"label{r.seq}")
            for r in records
        }
        local = relabel_site((p.id for p in ds), state.coverage_owner,
                             Labeling(labels), site=2)
        assert set(local.labels) == {p.id for p in ds}
        for oid, key in local.provenance.items():
            assert local.labels[oid] == labels[key]
        for oid in set(local.labels) - set(local.provenance):
            assert local.labels[oid] == 0

    with criterion("7f", "relabeling assigns every local object exactly one label"):
        prop()


def test_criterion_7g_metric_permutation_invariance():
    @settings(max_examples=100, deadline=None)
    @given(
        labels=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        min_size=1, max_size=50),
        data=st.data(),
    )
    def prop(labels, data):
        dist = {i: a for i, (a, _) in enumerate(labels)}
        ref = {i: b for i, (_, b) in enumerate(labels)}
        base = evaluate(dist, ref).matching_quality
        ids = sorted(set(dist.values()) - {0})
        mapping = dict(zip(ids, data.draw(st.permutations(ids)))) if ids else {}
        permuted = {i: mapping.get(v, 0) for i, v in dist.items()}
        assert evaluate(permuted, ref).matching_quality == pytest.approx(base, abs=1e-12)
        assert evaluate(dist, dist).matching_quality == 1.0

    with criterion("7g", "matching quality invariant under cluster-id permutation"):
        prop()


def test_criterion_7h_concurrent_site_determinism():
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(10, 50),
        n_sites=st.integers(1, 4),
        seed=st.integers(0, 10_000),
        budget=st.floats(0.05, 1.0),
    )
    def prop(n, n_sites, seed, budget):
        spec = dataset_spec("custom", seed=seed, n_points=n, n_clusters=2,
                            noise_fraction=0.2, min_center_separation=30.0)
        cfg = ExperimentConfig(dataset=spec, n_sites=n_sites, epsilon=4.0, min_pts=3,
                               budgets=(budget,), seed=seed)
        sequential = run_pipeline(cfg)
        concurrent = run_pipeline(ExperimentConfig(
            dataset=spec, n_sites=n_sites, epsilon=4.0, min_pts=3,
            budgets=(budget,), seed=seed, concurrent=True,
        ))
        assert concurrent.distributed == sequential.distributed
        assert concurrent.global_labeling.labels == sequential.global_labeling.labels
        assert concurrent.report == sequential.report

    with criterion("7h", "concurrent and sequential site execution agree bit-for-bit"):
        prop()


def test_criterion_8_dataset_c_sanity():
    with criterion(8, "dataset C: 3 reference clusters, 20% pipeline quality >= 0.95"):
        spec = dataset_spec("C", seed=FROZEN_SEED)
        params = CLUSTER_PARAMS["C"]
        ds = generate(spec)
        assert len(ds) == 1021
        reference = reference_dbscan(ds, params)
        assert reference.n_clusters == 3
        cfg = ExperimentConfig(dataset=spec, n_sites=4, epsilon=params.epsilon,
                               min_pts=params.min_pts, budgets=(0.2,), seed=FROZEN_SEED)
        result = run_pipeline(cfg, dataset=ds, reference=reference)
        assert result.report.matching_quality >= 0.95, (
            f"quality {result.report.matching_quality:.4f}"
        )
