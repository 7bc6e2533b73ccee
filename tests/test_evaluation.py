import json
import math
import re

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

import oracles
from distclust import InputError, evaluate, transmission_cost
from distclust.evaluation import write_cost_csv


# ------------------------------------------------------------ matching quality

def test_identical_labelings_score_one():
    labels = {i: (i % 3) + 1 for i in range(30)}
    assert evaluate(labels, dict(labels)).matching_quality == 1.0


def test_all_noise_against_no_noise_scores_zero():
    dist = {i: 0 for i in range(20)}
    ref = {i: 1 for i in range(20)}
    assert evaluate(dist, ref).matching_quality == 0.0


def test_permuted_cluster_ids_score_one():
    dist = {i: 1 if i < 10 else 2 for i in range(20)}
    ref = {i: 2 if i < 10 else 1 for i in range(20)}
    assert evaluate(dist, ref).matching_quality == 1.0


def test_noise_is_never_matched_to_a_cluster():
    # Distributed calls half the objects noise; even though that "noise
    # cluster" overlaps reference cluster 2 perfectly, it must not count.
    dist = {i: 1 for i in range(10)} | {i: 0 for i in range(10, 20)}
    ref = {i: 1 for i in range(10)} | {i: 2 for i in range(10, 20)}
    assert evaluate(dist, ref).matching_quality == 0.5


def test_extra_distributed_clusters_lose_mass():
    # Reference has one cluster; distributed splits it in two: only the larger
    # half can be matched.
    dist = {i: 1 if i < 6 else 2 for i in range(10)}
    ref = {i: 1 for i in range(10)}
    assert evaluate(dist, ref).matching_quality == 0.6


def test_matching_is_optimal_vs_exhaustive(rng):
    for _ in range(25):
        n = int(rng.integers(5, 60))
        dist = {i: int(rng.integers(0, 5)) for i in range(n)}
        ref = {i: int(rng.integers(0, 5)) for i in range(n)}
        assert evaluate(dist, ref).matching_quality == pytest.approx(
            oracles.brute_best_matching(dist, ref), abs=1e-12
        )


def test_id_set_mismatch_rejected():
    with pytest.raises(InputError):
        evaluate({0: 1}, {1: 1})


def test_negative_labels_rejected():
    with pytest.raises(InputError):
        evaluate({0: -1}, {0: 1})


@settings(max_examples=100, deadline=None)
@given(
    labels=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=60),
    data=st.data(),
)
def test_matching_quality_permutation_invariant(labels, data):
    dist = {i: a for i, (a, b) in enumerate(labels)}
    ref = {i: b for i, (a, b) in enumerate(labels)}
    base = evaluate(dist, ref).matching_quality
    ids = sorted(set(dist.values()) - {0})
    perm = data.draw(st.permutations(ids))
    mapping = dict(zip(ids, perm))
    permuted = {i: mapping.get(v, 0) for i, v in dist.items()}
    assert evaluate(permuted, ref).matching_quality == pytest.approx(base, abs=1e-12)
    assert evaluate(dist, dist).matching_quality == 1.0


# ------------------------------------------------------------------------ ARI

def test_ari_identical_partitions():
    labels = {i: i % 4 for i in range(40)}
    assert evaluate(labels, dict(labels)).adjusted_rand == 1.0


def test_ari_singletons_vs_one_cluster_n4():
    # Index 0, expectation 0, max 3: the statistic is exactly 0.
    dist = {i: i + 1 for i in range(4)}
    ref = {i: 1 for i in range(4)}
    assert evaluate(dist, ref).adjusted_rand == 0.0


def test_ari_degenerate_identical_cases():
    assert evaluate({0: 1, 1: 1}, {0: 5, 1: 5}).adjusted_rand == 1.0  # both one cluster
    assert evaluate({0: 1, 1: 2}, {0: 7, 1: 9}).adjusted_rand == 1.0  # both singletons
    assert evaluate({0: 1}, {0: 2}).adjusted_rand == 1.0


def test_ari_symmetric(rng):
    for _ in range(20):
        n = int(rng.integers(2, 50))
        a = {i: int(rng.integers(0, 4)) for i in range(n)}
        b = {i: int(rng.integers(0, 4)) for i in range(n)}
        assert evaluate(a, b).adjusted_rand == pytest.approx(evaluate(b, a).adjusted_rand, abs=1e-12)


def test_ari_matches_pair_counting_oracle(rng):
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = {i: int(rng.integers(0, 4)) for i in range(n)}
        b = {i: int(rng.integers(0, 4)) for i in range(n)}
        assert evaluate(a, b).adjusted_rand == pytest.approx(oracles.pair_counting_ari(a, b), abs=1e-9)


def test_ari_near_zero_for_independent_random_labelings(rng):
    values = []
    for _ in range(100):
        a = {i: int(rng.integers(1, 5)) for i in range(200)}
        b = {i: int(rng.integers(1, 5)) for i in range(200)}
        values.append(evaluate(a, b).adjusted_rand)
    assert abs(float(np.mean(values))) < 0.05


# ----------------------------------------------------------- transmission cost

def test_cost_ratio_between_17_and_5_percent():
    n = 10_000
    high = transmission_cost(1700, n)
    low = transmission_cost(500, n)
    assert high.bytes_distributed / low.bytes_distributed == 3.4


def test_full_replication_is_slightly_worse_than_raw():
    cost = transmission_cost(77, 77)
    assert cost.speedup == pytest.approx(100 / 108, rel=1e-12)
    assert cost.speedup < 1.0


def test_zero_representatives():
    cost = transmission_cost(0, 50)
    assert cost.bytes_distributed == 0
    assert math.isinf(cost.speedup)


def test_speedup_strictly_decreasing_in_n_reps():
    speedups = [transmission_cost(k, 100).speedup for k in range(0, 101)]
    assert all(a > b for a, b in zip(speedups, speedups[1:]))


def test_cost_validation():
    with pytest.raises(InputError):
        transmission_cost(5, 3)
    with pytest.raises(InputError, match="n_reps"):
        transmission_cost(2.5, 10)
    with pytest.raises(InputError, match="n_total"):
        transmission_cost(2, 10.0)


# --------------------------------------------------------------------- report

def test_report_is_single_line_json():
    dist = {i: 1 for i in range(10)}
    report = evaluate(dist, dict(dist))
    line = report.to_json()
    assert "\n" not in line
    parsed = json.loads(line)
    assert parsed["matching_quality"] == 1.0
    assert parsed["adjusted_rand"] == 1.0
    assert parsed["n_objects"] == 10
    assert parsed["n_clusters_distributed"] == 1
    assert parsed["n_clusters_reference"] == 1


CLUSTER_IDS = st.integers(0, 4) | st.just(2**63 - 1)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(CLUSTER_IDS, CLUSTER_IDS), max_size=40))
@example([])  # empty
@example([(0, 0)] * 5)  # all noise
@example([(7, 7)] * 3)  # one id on each side
@example([(0, 3), (0, 3), (0, 0)])  # all noise against one id
def test_report_counts_distinct_nonzero_ids(pairs):
    dist = {i: d for i, (d, _) in enumerate(pairs)}
    ref = {i: r for i, (_, r) in enumerate(pairs)}
    report = evaluate(dist, ref)
    assert report.n_objects == len(pairs)
    assert report.n_clusters_distributed == len(set(dist.values()) - {0})
    assert report.n_clusters_reference == len(set(ref.values()) - {0})
    assert report.matching_quality == pytest.approx(oracles.brute_best_matching(dist, ref), abs=1e-12)
    assert report.adjusted_rand == pytest.approx(oracles.pair_counting_ari(dist, ref), abs=1e-9)
    assert json.loads(report.to_json())["n_clusters_reference"] == report.n_clusters_reference


@pytest.mark.parametrize("side", ["distributed", "reference"])
def test_cluster_id_past_int64_rejected(side):
    good, bad = {0: 1, 1: 0}, {0: 2**63, 1: 0}
    with pytest.raises(InputError, match="2\\*\\*63"):
        evaluate(*((bad, good) if side == "distributed" else (good, bad)))


@pytest.mark.parametrize("label", [1.5, float("nan"), np.float64(2.0), True],
                         ids=["1.5", "nan", "float64", "True"])
@pytest.mark.parametrize("side", ["distributed", "reference"])
def test_non_integer_cluster_id_rejected(side, label):
    # 1.5 must not be read as 1 and merged with it, nor NaN fail as a bare ValueError; a bool is not an id.
    good, bad = {1: 1, 2: 2, 3: 3}, {1: label, 2: 1, 3: 2.7}
    with pytest.raises(InputError, match=re.escape(repr(label))):
        evaluate(*((bad, good) if side == "distributed" else (good, bad)))


def test_cost_csv_format(tmp_path):
    path = tmp_path / "cost.csv"
    write_cost_csv(5, 100, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "frac,bytes_distributed,bytes_full,speedup"
    assert lines[1].startswith("0.05,540,10000,")
