import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import as_pairs, make_dataset, random_dataset
from distclust import (
    CLUSTER_PARAMS,
    NOISE,
    Dataset,
    GlobalParams,
    InputError,
    Point,
    RepresentativeRecord,
    SelectionState,
    StopCriterion,
    global_dbscan,
    merge_streams,
    reference_dbscan,
)
from distclust import BallIndex, clustering, geometry
from distclust.datagen import dataset_spec
from distclust.pipeline import MERGE_ORDERS, ExperimentConfig, run_pipeline
from distclust.clustering import (
    load_global_labels_csv,
    load_reference_labels_csv,
    save_global_labels_csv,
    save_reference_labels_csv,
)


def rec(coords, cov_rad=0.0, cov_cnt=1, site=0, seq=0):
    return RepresentativeRecord(Point(seq, tuple(coords)), cov_rad, cov_cnt, site, seq)


def unit_records(ds, site=0):
    """Per-point records: cov_rad 0, cov_cnt 1, seq in dataset order."""
    return [RepresentativeRecord(p, 0.0, 1, site, k) for k, p in enumerate(ds)]


def labels_by_seq(labeling, site=0):
    return {seq: cid for (s, seq), cid in labeling.labels.items() if s == site}


# ------------------------------------------------------------- small helpers

def test_global_params_validation():
    for eps in (0.0, float("nan"), float("inf")):
        with pytest.raises(InputError):
            GlobalParams(eps, 3)
    with pytest.raises(InputError):
        GlobalParams(1.0, 0)


@pytest.mark.parametrize("min_pts", [2.5, True])
def test_global_params_min_pts_must_be_an_integer(min_pts):
    with pytest.raises(InputError, match="min_pts must be an integer"):
        GlobalParams(1.0, min_pts)


# ------------------------------------------------------------- global dbscan

def test_enlarged_range_merges_what_plain_range_would_miss():
    # Two representatives 1.4*eps apart: only the first one's enlarged radius
    # (eps + 0.5*eps) reaches across, and its weighted count makes it core, so
    # both land in cluster 1.
    params = GlobalParams(1.0, 4)
    reps = [
        rec((0.0, 0.0), cov_rad=0.5, cov_cnt=4, seq=0),
        rec((1.4, 0.0), cov_rad=0.0, cov_cnt=1, seq=1),
    ]
    labeling = global_dbscan(reps, params)
    assert labels_by_seq(labeling) == {0: 1, 1: 1}


def test_reach_is_asymmetric():
    # Only B carries a covering radius, so B sees A but A never sees B.
    params = GlobalParams(1.0, 2)
    a = rec((0.0, 0.0), cov_rad=0.0, cov_cnt=2, seq=0)
    b = rec((1.8, 0.0), cov_rad=1.0, cov_cnt=1, seq=1)

    # A first: A is core alone and forms cluster 1 without ever finding B.
    # B then reaches A, is core by A's weight, but A is already claimed, so B
    # opens cluster 2.
    labeling = global_dbscan([a, b], params)
    assert labels_by_seq(labeling) == {0: 1, 1: 2}

    # B first: B absorbs A into cluster 1 directly.
    labeling = global_dbscan([b, a], params)
    assert labels_by_seq(labeling) == {0: 1, 1: 1}


def test_core_test_boundary_at_min_pts():
    params = GlobalParams(1.0, 5)
    assert labels_by_seq(global_dbscan([rec((0, 0), cov_cnt=5)], params)) == {0: 1}
    assert labels_by_seq(global_dbscan([rec((0, 0), cov_cnt=4)], params)) == {0: NOISE}


def test_noise_start_gets_reassigned_as_border():
    # X fails its own core test, but a later core representative reaches it.
    params = GlobalParams(1.0, 5)
    reps = [
        rec((0.0, 0.0), cov_cnt=1, seq=0),
        rec((0.9, 0.0), cov_cnt=1, seq=1),
        rec((1.8, 0.0), cov_cnt=3, seq=2),
    ]
    labeling = global_dbscan(reps, params)
    assert labels_by_seq(labeling) == {0: 1, 1: 1, 2: 1}


def test_empty_input():
    assert global_dbscan([], GlobalParams(1.0, 3)).labels == {}


def test_degenerate_reduction_to_reference(rng):
    # cov_rad 0 and cov_cnt 1 everywhere: the weighted algorithm collapses to
    # the textbook one, label for label.
    for trial in range(10):
        n = int(rng.integers(20, 300))
        ds = random_dataset(rng, n)
        eps = float(rng.uniform(0.5, 2.0))
        min_pts = int(rng.integers(2, 8))
        params = GlobalParams(eps, min_pts)
        got = global_dbscan(unit_records(ds), params)
        ref = reference_dbscan(ds, params)
        assert {seq: cid for (_, seq), cid in got.labels.items()} == {
            k: ref.labels[p.id] for k, p in enumerate(ds)
        }


def assert_literal_weighted(coords, cov_rad, cov_cnt, params) -> list[int]:
    """Global labels of the records, checked against the literal transcription."""
    m = len(coords)
    reps = [rec(coords[i], float(cov_rad[i]), int(cov_cnt[i]), seq=i) for i in range(m)]
    got = labels_by_seq(global_dbscan(reps, params))
    expected = oracles.literal_weighted_dbscan(
        [(tuple(coords[i]), float(cov_rad[i]), int(cov_cnt[i])) for i in range(m)],
        params.epsilon, params.min_pts,
    )
    assert got == dict(enumerate(expected))
    return expected


def test_global_matches_literal_transcription_random(rng):
    for trial in range(15):
        m = int(rng.integers(5, 120))
        eps = float(rng.uniform(0.6, 1.8))
        coords = rng.uniform(0, 12, size=(m, 2))
        cov_rad = rng.uniform(0, eps, size=m) * (rng.random(m) < 0.7)
        cov_cnt = rng.integers(0, 6, size=m)
        assert_literal_weighted(coords, cov_rad, cov_cnt, GlobalParams(eps, int(rng.integers(2, 12))))
    # Dims 1 and 3, cov_rad up to 2 eps and mostly zero weights: the wide, uneven
    # reaches let later starts reach rows already NOISE or in an earlier cluster.
    reached = 0  # trials where a NOISE start joins a later cluster and a core reaches an earlier one
    for trial in range(30):
        m = int(rng.integers(5, 120))
        eps = float(rng.uniform(0.6, 1.8))
        coords = rng.uniform(0, (40, 12)[trial % 2], size=(m, (1, 3)[trial % 2]))
        cov_rad = rng.uniform(0, 2 * eps, size=m)
        cov_cnt = rng.integers(1, 6, size=m) * (rng.random(m) < 0.4)
        params = GlobalParams(eps, int(rng.integers(2, 12)))
        label = np.array(assert_literal_weighted(coords, cov_rad, cov_cnt, params))
        reach = np.linalg.norm(coords[:, None] - coords[None], axis=-1) <= (eps + cov_rad)[:, None]
        core = reach @ cov_cnt >= params.min_pts
        first_core = {c: np.flatnonzero(core & (label == c))[0] for c in set(label.tolist()) - {NOISE}}
        was_noise = any(j < first_core[label[j]] for j in np.flatnonzero(label != NOISE))
        earlier = (reach & core[:, None] & (label > NOISE) & (label < label[:, None])).any()
        reached += was_noise and earlier
    assert reached >= 10


def test_planted_clusters_with_inert_singletons(rng):
    # Three tight groups of heavy representatives plus far-flung singletons
    # with tiny weights: the groups come out as clusters, singletons as noise.
    params = GlobalParams(1.0, 10)
    reps = []
    seq = 0
    for center in [(0.0, 0.0), (20.0, 0.0), (0.0, 20.0)]:
        for _ in range(15):
            c = (center[0] + rng.uniform(-0.5, 0.5), center[1] + rng.uniform(-0.5, 0.5))
            reps.append(rec(c, cov_rad=float(rng.uniform(0, 0.4)), cov_cnt=4, seq=seq))
            seq += 1
    singles = []
    for k in range(5):
        reps.append(rec((40.0 + 7 * k, 40.0), cov_rad=0.2, cov_cnt=1, seq=seq))
        singles.append(seq)
        seq += 1
    labeling = global_dbscan(reps, params)
    assert labeling.n_clusters == 3
    by_seq = labels_by_seq(labeling)
    assert all(by_seq[s] == NOISE for s in singles)


def test_clustered_reps_are_core_or_border_of_core(rng):
    # Membership certificate: any representative with a real cluster id is
    # either core itself or sits inside the enlarged radius of a core one.
    for trial in range(10):
        m = int(rng.integers(5, 80))
        eps = float(rng.uniform(0.6, 1.5))
        coords = rng.uniform(0, 10, size=(m, 2))
        cov_rad = rng.uniform(0, eps, size=m)
        cov_cnt = rng.integers(0, 6, size=m)
        params = GlobalParams(eps, int(rng.integers(2, 10)))
        reps = [rec(coords[i], float(cov_rad[i]), int(cov_cnt[i]), seq=i) for i in range(m)]
        by_seq = labels_by_seq(global_dbscan(reps, params))

        def weighted_count(i):
            radius = eps + cov_rad[i]
            return sum(int(cov_cnt[j]) for j in range(m)
                       if oracles.dist(coords[j], coords[i]) <= radius)

        core = {i for i in range(m) if weighted_count(i) >= params.min_pts}
        for i in range(m):
            if by_seq[i] >= 1 and i not in core:
                assert any(
                    oracles.dist(coords[i], coords[q]) <= eps + cov_rad[q] for q in core
                ), f"border representative {i} has no core witness"


def test_determinism_bit_for_bit(rng):
    coords = rng.uniform(0, 8, size=(60, 2))
    reps = [rec(coords[i], float(rng.uniform(0, 1)), int(rng.integers(1, 4)), seq=i)
            for i in range(60)]
    params = GlobalParams(1.0, 6)
    assert global_dbscan(reps, params).labels == global_dbscan(reps, params).labels


def test_cluster_ids_contiguous_and_no_unclassified(rng):
    for trial in range(5):
        ds = random_dataset(rng, 150)
        labeling = global_dbscan(unit_records(ds), GlobalParams(1.0, 5))
        values = set(labeling.labels.values())
        assert -1 not in values
        clusters = sorted(v for v in values if v >= 1)
        assert clusters == list(range(1, len(clusters) + 1))


def test_multi_site_keys_preserved():
    params = GlobalParams(1.0, 1)
    reps = [rec((0.0, 0.0), site=2, seq=0, cov_cnt=1),
            rec((5.0, 0.0), site=7, seq=0, cov_cnt=1)]
    labeling = global_dbscan(reps, params)
    assert set(labeling.labels) == {(2, 0), (7, 0)}


def test_repeated_key_rejected():
    # a is core with c, but b shares a's key and is noise: one label cannot be right for both.
    a, b, c = (rec(xy, cov_rad=0.5, cov_cnt=5, seq=seq) for xy, seq in
               (((0.0, 0.0), 0), ((50.0, 50.0), 0), ((0.1, 0.0), 1)))
    with pytest.raises(InputError, match=r"representative \(site, seq\) = \(0, 0\) appears twice"):
        global_dbscan([a, b, c], GlobalParams(1.0, 6))
    with pytest.raises(InputError, match=r"\(0, 1\) appears twice"):
        global_dbscan([c, a, c, b], GlobalParams(1.0, 6))


def test_mixed_dimension_records_rejected():
    reps = [rec((0.0, 0.0), seq=0),
            RepresentativeRecord(Point(1, (0.0, 0.0, 0.0)), 0.0, 1, 0, 1)]
    with pytest.raises(InputError):
        global_dbscan(reps, GlobalParams(1.0, 1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
def test_non_finite_or_negative_cov_rad_rejected(bad):
    with pytest.raises(InputError, match="non-negative and finite"):
        global_dbscan([rec((0.0, 0.0), seq=0), rec((1.0, 0.0), cov_rad=bad, seq=1)], GlobalParams(1.0, 1))


def test_cov_cnt_total_past_int64_rejected():
    # 2**70 does not fit int64; two counts of 2**62 do, but their weight sum would
    # wrap negative and leave both records noise.
    for counts in ([2**70], [2**62, 2**62]):
        reps = [rec((0.1 * k, 0.0), cov_cnt=c, seq=k) for k, c in enumerate(counts)]
        with pytest.raises(InputError, match=r"2\*\*63"):
            global_dbscan(reps, GlobalParams(1.0, 2))
    reps = [rec((0.0, 0.0), cov_cnt=2**62, seq=0), rec((0.1, 0.0), cov_cnt=2**62 - 1, seq=1)]
    assert labels_by_seq(global_dbscan(reps, GlobalParams(1.0, 2**63 - 1))) == {0: 1, 1: 1}


def test_global_matches_literal_transcription_5d(rng):
    # Five dimensions. Half the enlarged radii eps + cov_rad reach exactly to
    # some other representative (whenever it lies beyond eps), so closed-ball
    # boundaries are hit on purpose.
    for trial in range(8):
        m = int(rng.integers(5, 80))
        eps = float(rng.uniform(1.0, 3.0))
        coords = rng.uniform(0, 6, size=(m, 5))
        cov_rad = rng.uniform(0, eps, size=m)
        for i in range(0, m, 2):
            j = int(rng.integers(0, m))
            cov_rad[i] = max(0.0, oracles.dist(coords[i], coords[j]) - eps)
        cov_cnt = rng.integers(0, 6, size=m)
        assert_literal_weighted(coords, cov_rad, cov_cnt, GlobalParams(eps, int(rng.integers(2, 12))))


def test_zero_count_core_record_carries_its_witness_into_the_cluster():
    # A zero-count record is not inert. Site 1's (1, 1) at 1.0 has a witness,
    # (1, 0) at 1.5 with cov_rad 0.5, yet it is core (it reaches both sites'
    # positive counts) and its expansion is what pulls (1, 0) into cluster 1.
    # Emptying the zero-count rows leaves (1, 0) a cluster of its own.
    eps, params = 1.0, GlobalParams(1.0, 2)
    streams = [list(SelectionState(make_dataset(coords), eps, site=site).run(StopCriterion.size(2)))
               for site, coords in ((0, [(0.0,), (0.0,)]), (1, [(1.5,), (1.0,)]))]
    assert [(r.point.coords, r.cov_rad, r.cov_cnt) for r in streams[0] + streams[1]] == [
        ((0.0,), 0.0, 2), ((0.0,), 0.0, 0), ((1.5,), 0.5, 2), ((1.0,), 0.0, 0)]
    for order in ("interleave", "concat"):
        merged = merge_streams(streams, order)
        labels = global_dbscan(merged, params).labels
        assert list(labels.values()) == [1, 1, 1, 1]
        assert [labels[r.key] for r in merged] == oracles.literal_weighted_dbscan(
            [(r.point.coords, r.cov_rad, r.cov_cnt) for r in merged], eps, params.min_pts)
        indptr, cols, _ = BallIndex(np.array([r.point.coords for r in merged])).graph(
            eps + np.array([r.cov_rad for r in merged]))
        counts = np.array([r.cov_cnt for r in merged])
        rows = [cols[indptr[i]:indptr[i + 1]] if counts[i] else cols[:0] for i in range(len(merged))]
        emptied = clustering._expand(np.cumsum([0] + [len(row) for row in rows]),
                                     np.concatenate(rows), counts, params.min_pts)
        assert emptied[[r.key for r in merged].index((1, 0))] == 2


# Per dimension: eps, then s, z and q, found by random search. s covers z at exactly
# cov_rad(s) = D(s, z) <= eps, so z reaches s and is core; q lies at eps beyond z on the
# same line, so z reaches q, while s misses q by one ulp of rounding in `distances`.
FAR_EDGE = {
    2: (2.5440862368663733, (-5.20202087701885, -2.5639112600882186),
        (-5.245633878979647, -3.4250221246584136), (-5.374320215471486, -5.965851636336286)),
    3: (1.8961392544446762, (9.736805530557742, 0.11588705637513996, -1.2051943213114917),
        (9.605668005364864, 0.4965428119984999, -0.21558811707345515),
        (9.372925782056976, 1.1721287417193686, 1.5407600207679306)),
    4: (2.603716396009205, (6.534272403176303, -2.334212738565933, 4.131693644257551, 0.35866219871330784),
        (4.768034538884727, -2.984939660890191, 3.078764908539866, 0.08517764082754847),
        (2.6527280930505612, -3.7642723210596234, 1.81774169830483, -0.24235675294103215)),
    5: (2.2501651399223, (-0.5533548279006251, 6.244100302524917, -0.08121711624648498, -4.190807674282477,
                          -6.108462247684116),
        (-0.542591814140462, 6.111282875566352, 0.00025560732836346634, -3.8546069203672375,
         -5.94164860556935),
        (-0.4830152961068956, 5.376098473809259, 0.45123163443949155, -1.9936346383596277,
         -5.018284928893655)),
}


@pytest.mark.parametrize("dim", FAR_EDGE)
def test_witness_rule_survives_rounding_on_the_far_edge(dim):
    # Without a slack in the witness test, z would pass it, keep only its column s, and
    # leave q unreached; q would come out NOISE where the whole graph puts it in cluster 1.
    eps, s, z, q = FAR_EDGE[dim]
    coords = np.array([s, z, q])
    distance = BallIndex(coords).distances
    cov_rad = distance(np.array([1]), coords[0])[0]
    assert cov_rad <= eps and distance(np.array([2]), coords[1])[0] <= eps
    assert distance(np.array([2]), coords[0])[0] > eps + cov_rad
    assert assert_literal_weighted(coords, [cov_rad, 0.0, 0.0], [3, 0, 0], GlobalParams(eps, 3)) == [1, 1, 1]


@pytest.mark.parametrize("order", MERGE_ORDERS)
def test_witnessed_zero_count_rows_list_only_positive_count_columns(monkeypatch, order):
    # Kind C at 100%: 1021 records, about 900 of them zero-count once their site is covered.
    graphs, expand = [], clustering._expand

    def spy(indptr, cols, weight, min_pts):
        graphs.append((indptr, cols, weight))
        return expand(indptr, cols, weight, min_pts)

    monkeypatch.setattr(clustering, "_expand", spy)
    params = CLUSTER_PARAMS["C"]
    res = run_pipeline(ExperimentConfig(dataset_spec("C", 7), 4, params.epsilon, params.min_pts,
                                        budgets=(1.0,), seed=7, merge_order=order))
    (indptr, cols, weight), = graphs
    coords = np.array([r.point.coords for r in res.merged])
    cov_rad = np.array([r.cov_rad for r in res.merged])
    index = BallIndex(coords)
    whole_indptr, whole_cols, _ = index.graph(params.epsilon + cov_rad)
    assert len(cols) <= len(whole_cols) / 3
    cut = 0
    for row in range(len(res.merged)):
        listed = cols[indptr[row]:indptr[row + 1]].tolist()
        whole = whole_cols[whole_indptr[row]:whole_indptr[row + 1]]
        positive = whole[weight[whole] > 0]
        # A witness well inside, far past any rounding: such a row must be cut.
        clear = weight[row] == 0 and (index.distances(positive, coords[row])
                                      <= (cov_rad[positive] - cov_rad[row]) * (1 - 1e-9)).any()
        assert listed == (positive.tolist() if clear else whole.tolist()) or (
            weight[row] == 0 and listed == positive.tolist())
        cut += clear
    assert cut >= 850


# ---------------------------------------------------------- reference dbscan

def test_reference_single_dense_cluster():
    ds = make_dataset([(0.0, 0.0), (0.3, 0.0), (0.0, 0.3), (0.3, 0.3)])
    labeling = reference_dbscan(ds, GlobalParams(1.0, 4))
    assert set(labeling.labels.values()) == {1}


def test_reference_all_isolated_is_noise():
    ds = make_dataset([(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)])
    labeling = reference_dbscan(ds, GlobalParams(1.0, 2))
    assert set(labeling.labels.values()) == {NOISE}


def test_reference_empty_dataset():
    assert reference_dbscan(Dataset([], np.empty((0, 2))), GlobalParams(1.0, 3)).labels == {}
    assert assert_reference_is_literal(Dataset([], np.empty((0, 3))), 1.0, 1) == {}


def test_reference_matches_brute_force_blobs(rng):
    blobs = np.vstack([
        rng.normal((0, 0), 0.8, size=(120, 2)),
        rng.normal((8, 8), 0.8, size=(120, 2)),
        rng.uniform(-4, 12, size=(60, 2)),
    ])
    ds = make_dataset([tuple(map(float, row)) for row in blobs])
    params = GlobalParams(0.7, 6)
    got = reference_dbscan(ds, params)
    expected = oracles.literal_dbscan(as_pairs(ds), params.epsilon, params.min_pts)
    assert got.labels == expected


@settings(max_examples=60, deadline=None)
@given(
    coords=st.lists(st.tuples(st.floats(0, 10), st.floats(0, 10)), min_size=1, max_size=40),
    eps=st.floats(0.2, 3.0),
    min_pts=st.integers(1, 6),
)
def test_reference_matches_brute_force_property(coords, eps, min_pts):
    ds = make_dataset(coords)
    got = reference_dbscan(ds, GlobalParams(eps, min_pts))
    assert got.labels == oracles.literal_dbscan(as_pairs(ds), eps, min_pts)


@pytest.mark.parametrize("dim", [5, 6])
def test_reference_matches_brute_force_high_dim(rng, dim):
    for trial in range(4):
        ds = random_dataset(rng, int(rng.integers(30, 150)), dim=dim)
        pairs = as_pairs(ds)
        # epsilon equal to an actual pairwise distance puts points on the boundary
        p, q = ds.coords[0].tolist(), ds.coords[int(rng.integers(1, len(ds)))].tolist()
        eps = max(oracles.dist(p, q), 0.5)
        min_pts = int(rng.integers(2, 8))
        got = reference_dbscan(ds, GlobalParams(eps, min_pts))
        assert got.labels == oracles.literal_dbscan(pairs, eps, min_pts)


def shuffled_dataset(rng, coords):
    """Points in the given (dataset) order whose ids are a random permutation,
    so id order and dataset order disagree."""
    ids = rng.permutation(3 * len(coords))[:len(coords)].tolist()
    return Dataset(ids, coords)


def assert_reference_is_literal(ds, eps, min_pts):
    got = reference_dbscan(ds, GlobalParams(eps, min_pts)).labels
    assert got == oracles.literal_dbscan(as_pairs(ds), eps, min_pts)
    return got


def test_reference_border_goes_to_the_first_cluster_in_dataset_order():
    # B (id 7) is within eps of a core of each cluster but not core itself.
    # The right cluster comes first in dataset order, the left one has the
    # lower ids: B and the numbering follow dataset order.
    right, left = (3.0, 3.4, 3.7, 4.0), (0.0, 0.3, 0.6, 1.0)
    ds = Dataset([10, 11, 12, 13, 0, 1, 2, 3, 7], [[x] for x in right + left + (2.0,)])
    got = assert_reference_is_literal(ds, 1.0, 4)
    assert got == {**dict.fromkeys(range(10, 14), 1), **dict.fromkeys(range(4), 2), 7: 1}
    # Reversed dataset order: the left cluster is found first and takes B.
    got = assert_reference_is_literal(Dataset(ds.ids[::-1], ds.coords[::-1]), 1.0, 4)
    assert got[7] == got[0] == 1 and got[10] == 2


def test_reference_lattice_at_exactly_eps():
    # Spacing 0.25 is exact: every neighbour sits exactly on the sphere, inner
    # points have degree exactly min_pts = 3 and the ends are border points. The
    # last point lies 2**-40 beyond eps of its lattice neighbour, so it is noise.
    xs = [0.25 * k for k in range(5)] + [0.25 * k for k in range(10, 15)] + [3.5 + 0.25 + 2 ** -40]
    ds = make_dataset([(x,) for x in xs])
    got = assert_reference_is_literal(ds, 0.25, 3)
    assert list(got.values()) == [1] * 5 + [2] * 5 + [NOISE]


def test_reference_min_pts_extremes(rng):
    ds = shuffled_dataset(rng, rng.uniform(0, 10, size=(40, 2)))
    # min_pts 1: every point is core, so an isolated point is its own cluster.
    got = assert_reference_is_literal(ds, 0.4, 1)
    assert NOISE not in got.values()
    assert sorted(set(got.values())) == list(range(1, len(set(got.values())) + 1))
    assert assert_reference_is_literal(ds, 0.4, len(ds) + 1) == dict.fromkeys(got, NOISE)


def test_reference_single_point():
    ds = Dataset([5], [[1.0, 2.0]])
    assert assert_reference_is_literal(ds, 1.0, 1) == {5: 1}
    assert assert_reference_is_literal(ds, 1.0, 2) == {5: NOISE}


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("block_pairs", [1, 7])
def test_reference_across_block_seams(rng, monkeypatch, dim, block_pairs):
    # Small blocks put pairs and clusters across block boundaries; shuffled ids
    # keep dataset order apart from id order; eps equal to the distance from
    # one point to its k-th nearest neighbour puts a point on the boundary.
    monkeypatch.setattr(geometry, "GRAPH_BLOCK_PAIRS", block_pairs)
    for trial in range(3):
        coords = random_dataset(rng, int(rng.integers(20, 90)), dim=dim).coords
        ds = shuffled_dataset(rng, coords)
        eps = sorted(oracles.dist(coords[0], c) for c in coords)[int(rng.integers(2, 8))]
        assert_reference_is_literal(ds, eps, int(rng.integers(2, 7)))


def two_cells(dim, a, b):
    """Rows at t * side along axis 0 of the grid `reference_dbscan` bins with at eps 1
    (side just under 1/sqrt(dim), so t in [k, k + 1) falls in cell k): rows a in cell 0,
    then rows m + b in cell m. At m = int(sqrt(dim) + 0.85) the two cells' centres are
    m * side apart, and rows at t 0.9 and m + 0.05 are still within eps."""
    side, m = 1 / np.sqrt(dim) * (1 - 1e-6), int(np.sqrt(dim) + 0.85)
    coords = np.full((len(a) + len(b), dim), 3.7)
    coords[:, 0] += np.multiply(a + [m + t for t in b], side)
    return Dataset(np.arange(len(coords)), coords)


@pytest.mark.parametrize("dim", range(1, 7))
def test_reference_joins_dense_cells_that_only_members_link(dim):
    # Each cell's lowest row (its witness, at t 0 and m + 0.95) is over eps from every row
    # of the other cell, but the members at t 0.9 and m + 0.05 are within eps: one cluster.
    ds = two_cells(dim, [0.0, 0.85, 0.9], [0.95, 0.05, 0.1])
    assert assert_reference_is_literal(ds, 1.0, 3) == dict.fromkeys(range(6), 1)


@pytest.mark.parametrize("dim", range(1, 7))
def test_reference_keeps_apart_dense_cells_that_no_pair_links(dim):
    # Same cells, every cross pair over eps apart: the cells' centres are close enough
    # for the exact check, and it finds no link.
    ds = two_cells(dim, [0.0, 0.3, 0.4], [0.95, 0.5, 0.6])
    assert assert_reference_is_literal(ds, 1.0, 3) == {0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 2}


@pytest.mark.parametrize("dim", range(1, 7))
def test_reference_later_witness_renames_its_whole_cell(dim):
    # Only the second cell's witness (t m + 0.05) reaches the first cell, at its member
    # t 0.9: the second cell joins the first whole, not its witness alone.
    ds = two_cells(dim, [0.0, 0.85, 0.9], [0.05, 0.5, 0.6])
    assert assert_reference_is_literal(ds, 1.0, 3) == dict.fromkeys(range(6), 1)


# For these eps, a cell side of exactly eps/sqrt(d) rounds its opposite corners over eps apart.
CORNERS_OVER_EPS_WITHOUT_MARGIN = {3: [11.95714189912263], 6: [15.199478502542625, 13.66359756103564]}


@pytest.mark.parametrize("dim", range(1, 7))
def test_reference_opposite_corners_of_a_cell(rng, dim):
    # The far corner is the farthest point the grid still bins with the origin: the two
    # lie side * sqrt(d) apart to a few ulps, and the cell is dense at min_pts 2 only if
    # they are within eps. The grid's side is read off the centre it reports for the origin.
    for eps in CORNERS_OVER_EPS_WITHOUT_MARGIN.get(dim, []) + rng.uniform(0.05, 20, 30).tolist():
        low = np.zeros(dim)
        side = 2 * clustering._cells(np.array([low]), eps)[2][0, 0]
        far = low + side
        while clustering._cells(np.stack([low, far]), eps)[0][1] != 0:
            far = np.nextafter(far, -np.inf)
        ds = Dataset([4, 9], [low, far])
        gap = BallIndex(ds.coords).distances(np.array([1]), low)[0]
        assert abs(gap - side * np.sqrt(dim)) <= 4 * dim * np.spacing(eps)
        assert assert_reference_is_literal(ds, eps, 2) == {4: 1, 9: 1}


def unique_cells(coords, eps):
    """`clustering._cells` as `np.unique(axis=0)` groups the floored grid offsets."""
    side = eps / np.sqrt(coords.shape[1]) * (1 - 1e-6)
    offset = (coords - coords.min(axis=0, initial=np.inf)) / side
    if not (offset < 2**24).all():
        return np.arange(len(coords)), np.zeros(len(coords), np.intp), coords
    grid, first, cell, size = np.unique(np.floor(offset), axis=0, return_index=True,
                                        return_inverse=True, return_counts=True)
    cell = cell.reshape(-1)
    return first[cell], size[cell], (grid[cell] + 0.5) * side


@pytest.mark.parametrize("dim", range(1, 7))
def test_cells_group_rows_as_unique_floored_offsets(rng, dim):
    # Rows on cell corners at the eps that round them over eps without the margin, an axis
    # of about 2.8e12 cells, an empty set and random sets: names, sizes and centres agree.
    cases = [(random_dataset(rng, 300, dim=dim).coords * scale, eps)
             for scale in (1.0, 0.2) for eps in (0.3, 1.0, 2.5)] + [(np.empty((0, dim)), 1.0)]
    for eps in CORNERS_OVER_EPS_WITHOUT_MARGIN.get(dim, []):
        corner = np.full(dim, eps / np.sqrt(dim) * (1 - 1e-6))
        cases.append((np.stack([np.zeros(dim), np.nextafter(corner, 0), corner,
                                np.nextafter(corner, np.inf), 2 * corner]), eps))
    if dim == 2:
        cases.append((np.array([[0.0, 0.0], [0.1, 0.0], [2e12, 0.0], [2e12 + 0.5, 0.0]]), 1.0))
    for coords, eps in cases:
        got, want = clustering._cells(coords, eps), unique_cells(coords, eps)
        assert [a.tolist() for a in got] == [a.tolist() for a in want]


def listed_rows(monkeypatch):
    """Every row position `BallIndex.pair_blocks` is asked to enumerate, call after call."""
    listed, original = [], BallIndex.pair_blocks

    def spy(self, radius, rows=None, cols=None, counts=None):
        listed.extend(range(len(self.coords)) if rows is None else np.asarray(rows).tolist())
        return original(self, radius, rows, cols, counts)

    monkeypatch.setattr(BallIndex, "pair_blocks", spy)
    return listed


def test_reference_too_wide_for_the_grid_lists_every_row(monkeypatch):
    # An axis spanning over 2**40 cells (the grid stops at 2**24): no cell is dense, and
    # every row lists its pairs.
    coords = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.1], [0.1, 0.2], [2e12, 0.0], [2e12 + 0.5, 0.0]])
    ds = make_dataset([tuple(row) for row in coords])
    assert not clustering._cells(ds.coords, 1.0)[1].any()
    listed = listed_rows(monkeypatch)
    assert assert_reference_is_literal(ds, 1.0, 2) == {0: 1, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2}
    assert listed == list(range(6))


def test_reference_lists_only_witnesses_when_every_cell_is_dense(rng, monkeypatch):
    # Four rows in each cell of a 12 x 12 patch, plus one row at the lowest corner that sets
    # the grid's origin, so no row sits on a cell boundary: with min_pts 4 every cell is
    # dense, and only the witnesses (each cell's lowest row) may list pairs, not all 577 rows.
    side = 1.0 / np.sqrt(2) * (1 - 1e-6)
    lattice = np.stack(np.meshgrid(range(12), range(12)), axis=-1).reshape(-1, 2)
    offsets = [(0.2, 0.2), (0.8, 0.2), (0.2, 0.8), (0.8, 0.8)]
    coords = np.vstack([(lattice + off) * side for off in offsets] + [[[0.1 * side] * 2]])
    ds = shuffled_dataset(rng, coords)
    name, size, _ = clustering._cells(ds.coords, 1.0)
    assert (size >= 4).all() and len(np.unique(name)) == 144
    listed = listed_rows(monkeypatch)
    assert set(assert_reference_is_literal(ds, 1.0, 4).values()) == {1}
    assert sorted(listed) == np.unique(name).tolist()


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 3), eps=st.floats(0.5, 2.0), min_pts=st.integers(1, 4), data=st.data())
def test_reference_matches_brute_force_on_tight_blobs(dim, eps, min_pts, data):
    # Blobs a few cells wide, close enough to touch, so most cells are dense and
    # neighbouring dense cells are joined by witnesses, by members or not at all.
    point = st.tuples(*[st.floats(-0.4, 0.4)] * dim)
    centres = data.draw(st.lists(st.tuples(*[st.floats(0, 3)] * dim), min_size=1, max_size=4))
    blob = st.integers(0, len(centres) - 1)
    members = data.draw(st.lists(st.tuples(blob, point), min_size=1, max_size=60))
    coords = np.array([np.add(centres[k], np.multiply(off, eps)) for k, off in members])
    assert_reference_is_literal(Dataset(np.arange(len(coords)), coords), eps, min_pts)


# ------------------------------------------------------------------ file io

def test_global_labels_csv_roundtrip(tmp_path, rng):
    ds = random_dataset(rng, 40)
    labeling = global_dbscan(unit_records(ds, site=3), GlobalParams(1.0, 4))
    path = tmp_path / "labels.csv"
    save_global_labels_csv(labeling, path)
    assert load_global_labels_csv(path).labels == labeling.labels
    assert path.read_text().splitlines()[0] == "site,seq,cluster_id"


def test_reference_labels_csv_roundtrip(tmp_path, rng):
    ds = random_dataset(rng, 40)
    labeling = reference_dbscan(ds, GlobalParams(1.0, 4))
    path = tmp_path / "ref.csv"
    save_reference_labels_csv(labeling, path)
    assert load_reference_labels_csv(path).labels == labeling.labels
    assert path.read_text().splitlines()[0] == "id,cluster_id"


def test_labels_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(InputError):
        load_global_labels_csv(path)
    with pytest.raises(InputError):
        load_reference_labels_csv(path)


def test_labels_csv_rejects_repeated_key(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("site,seq,cluster_id\n0,0,1\n0,1,1\n0,0,2\n")
    with pytest.raises(InputError, match="repeated key"):
        load_global_labels_csv(path)
    path.write_text("id,cluster_id\n4,1\n4,1\n")
    with pytest.raises(InputError, match="repeated key"):
        load_reference_labels_csv(path)


def test_labels_csv_rejects_short_and_non_integer_rows(tmp_path):
    path = tmp_path / "bad.csv"
    for body in ["0\n", "0,x\n", "0,1,2\n"]:
        path.write_text("id,cluster_id\n" + body)
        with pytest.raises(InputError):
            load_reference_labels_csv(path)
