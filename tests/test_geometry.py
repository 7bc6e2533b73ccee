import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import oracles
from conftest import as_pairs, make_dataset, random_dataset
from distclust import BallIndex, Dataset, InputError, Point, geometry
from distclust.geometry import load_dataset_csv, save_dataset_csv


coords2d = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


def test_point_rejects_non_finite_coords():
    with pytest.raises(InputError):
        Point(0, (0.0, float("nan")))
    with pytest.raises(InputError):
        Point(0, (float("inf"), 0.0))
    with pytest.raises(InputError, match="coords must be one or more finite numbers"):
        Point(0, ("2.5", 0.0))


def test_point_rejects_negative_id():
    with pytest.raises(InputError):
        Point(-1, (0.0,))
    with pytest.raises(InputError, match="point id must be an integer >= 0, got True"):
        Point(True, (0.0,))
    with pytest.raises(InputError, match="point id must be an integer"):
        Point(np.True_, (0.0,))
    point = Point(np.int64(3), (0.0,))
    assert point.id == 3 and type(point.id) is int


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(InputError):
        Dataset([3, 3], [[0.0], [1.0]])
    with pytest.raises(InputError):
        Dataset(np.array([4, 1, 4]), np.zeros((3, 2)))


def test_dataset_rejects_mixed_dims():
    with pytest.raises(InputError):
        Dataset([0, 1], [[0.0], [1.0, 2.0]])


def test_empty_dataset_needs_dim():
    with pytest.raises(InputError):
        Dataset([], [])
    ds = Dataset([], np.empty((0, 2)))
    assert len(ds) == 0 and ds.dim == 2 and list(ds) == []


@pytest.mark.parametrize("ids, coords", [
    ([0, 1], [[0.0]]),                     # one id too many
    ([0], [[0.0], [1.0]]),                 # one id too few
    ([[0]], [[0.0]]),                      # ids not a vector
    ([0], [0.0]),                          # coordinates not rows
    ([0], [[]]),                           # zero columns
    ([0, 1], [[0.0], [float("nan")]]),
    ([0, 1], [[float("-inf")], [0.0]]),
    ([-1], [[0.0]]),
    ([2**63], [[0.0]]),                    # past int64
    ([2**70], [[0.0]]),
    ([1.5], [[0.0]]),                      # not an integer
    ([0], [["x"]]),
    ([0], [[10**400]]),                    # past the float range
], ids=["long-ids", "short-ids", "2d-ids", "1d-coords", "no-columns", "nan", "inf",
        "negative", "2**63", "2**70", "float-id", "text", "10**400"])
def test_dataset_rejects_bad_arrays(ids, coords):
    with pytest.raises(InputError):
        Dataset(ids, coords)


def test_dataset_builds_points_from_rows():
    ds = Dataset([5, 2], [[1.0, 2.0], [3.0, 4.0]])
    assert list(ds) == [Point(5, (1.0, 2.0)), Point(2, (3.0, 4.0))]
    assert ds.ids.dtype == np.int64 and ds.coords.dtype == np.float64


def graph_rows(idx, radius, ids):
    """Each row's neighbours from the index's graph, in stored order, as ids:
    position i names ids[i]."""
    indptr, cols, _ = idx.graph(radius)
    assert cols.dtype == np.int32 and indptr.shape == (len(ids) + 1,)
    return [ids[cols[indptr[i]:indptr[i + 1]]].tolist() for i in range(len(ids))]


def balls(ds, radius):
    """Each object's closed ball as a set of ids, by id, from the graph; the
    index's `pair_blocks` must give the same pairs, with their distances."""
    idx = BallIndex(ds.coords)
    rows = dict(zip(ds.ids.tolist(), map(set, graph_rows(idx, radius, ds.ids))))
    blocks = list(idx.pair_blocks(radius))
    assert all(d.tolist() == idx.distances(c, idx.coords[r]).tolist() for _, _, r, c, d in blocks)
    pairs = {pair for _, _, r, c, _ in blocks for pair in zip(ds.ids[r].tolist(), ds.ids[c].tolist())}
    assert pairs == {(a, b) for a, row in rows.items() for b in row}
    return rows


def ball_ids(ds, center, radius):
    """Ids in the closed ball around any `center`: the `pair_blocks` row of one
    more row, placed at `center` after the dataset's, less that row."""
    idx = BallIndex(np.vstack([ds.coords, [center]]))
    blocks = idx.pair_blocks(radius, np.array([len(ds)]))
    return set().union(*(ds.ids[cols[cols < len(ds)]].tolist() for _, _, _, cols, _ in blocks))


def test_duplicate_coordinates_are_distinct_objects():
    ds = make_dataset([(1.0, 1.0), (1.0, 1.0)])
    assert balls(ds, 0.0) == {0: {0, 1}, 1: {0, 1}}


def test_empty_dataset_index():
    ds = Dataset([], np.empty((0, 2)))
    assert balls(ds, 100.0) == {}
    assert ball_ids(ds, (5.0, 5.0), 100.0) == set()


def test_single_point_index():
    ds = make_dataset([(2.0, 3.0)])
    assert balls(ds, 0.0) == balls(ds, 10.0) == {0: {0}}


def test_range_query_hand_case():
    ds = make_dataset([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)])
    assert balls(ds, 1.0) == {0: {0, 1}, 1: {0, 1}, 2: {2}}


def test_range_query_boundary_is_inclusive():
    ds = make_dataset([(0.0, 0.0), (3.0, 4.0)])
    assert balls(ds, 5.0) == {0: {0, 1}, 1: {0, 1}}
    assert balls(ds, 4.999999) == {0: {0}, 1: {1}}


def test_index_rejects_coordinates_that_are_not_rows():
    with pytest.raises(InputError):
        BallIndex(np.zeros(3))


@pytest.mark.parametrize("coords", [[[1e308, 0.0], [-1e308, 0.0]], [[0.0, 0.0], [1.3e154, 1.3e154]]],
                         ids=["span-overflows", "squared-spans-overflow"])
def test_index_rejects_coordinates_whose_squared_distances_overflow(coords):
    with pytest.raises(InputError, match="span"):
        BallIndex(np.array(coords))


def test_index_takes_spans_whose_squared_distances_stay_finite():
    idx = BallIndex(np.array([[0.0, 0.0], [9e153, 9e153]]))
    assert idx.graph(1.0)[1].tolist() == [0, 1]


def test_graph_answers_positions_ascending_with_their_distances():
    coords = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0], [9.0, 9.0]])
    idx = BallIndex(coords)
    indptr, cols, _ = idx.graph(5.0)
    row = cols[indptr[1]:indptr[2]]  # position 1, at the origin
    assert row.tolist() == [0, 1, 2]
    assert idx.distances(row, idx.coords[1]).tolist() == [5.0, 0.0, 1.0]


@pytest.mark.parametrize("dim", range(1, 7))
def test_distances_equal_the_oracle_bit_for_bit(rng, dim):
    # The oracles' closed balls and scores are exact references only if both
    # sides measure with the very same floats.
    idx = BallIndex(random_dataset(rng, 50, dim=dim).coords)
    rows, points = np.arange(50), idx.coords.tolist()
    for center in rng.uniform(-2, 12, size=(5, dim)):
        assert idx.distances(rows, center).tolist() == [oracles.dist(p, center.tolist()) for p in points]
    others = rng.permutation(50)
    assert idx.distances(rows, idx.coords[others]).tolist() == [
        oracles.dist(points[i], points[j]) for i, j in zip(rows, others)]


def test_index_matches_brute_force_random(rng):
    ds = random_dataset(rng, 200)
    pairs = as_pairs(ds)
    for _ in range(50):
        center = tuple(map(float, rng.uniform(-2, 12, 2)))
        radius = float(rng.uniform(0, 4))
        assert ball_ids(ds, center, radius) == oracles.brute_range_ids(pairs, center, radius)


def test_index_matches_brute_force_large(rng):
    ds = random_dataset(rng, 10_000, clustered=False, spread=100.0)
    pairs = as_pairs(ds)
    keys = rng.permutation(3 * len(ds))[:len(ds)]  # in shuffled row order
    shuffled = Dataset(keys, ds.coords)
    for _ in range(10):
        center = tuple(map(float, rng.uniform(0, 100, 2)))
        radius = float(rng.uniform(0, 10))
        got = ball_ids(shuffled, center, radius)
        assert got == {int(keys[i]) for i in oracles.brute_range_ids(pairs, center, radius)}


@settings(max_examples=100, deadline=None)
@given(
    coords=st.lists(coords2d, min_size=0, max_size=30),
    center=coords2d,
    radius=st.floats(0, 50),
)
def test_index_brute_equivalence_property(coords, center, radius):
    ds = make_dataset(coords, dim=2)
    assert ball_ids(ds, center, radius) == oracles.brute_range_ids(as_pairs(ds), center, radius)


@st.composite
def boundary_cases(draw):
    """Points in 1-6 dimensions plus a query center and radius taken from two
    of them, so one point lies exactly on the sphere."""
    dim = draw(st.integers(1, 6))
    coords = draw(st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * dim), min_size=2, max_size=30))
    i = draw(st.integers(0, len(coords) - 1))
    j = draw(st.integers(0, len(coords) - 1))
    return coords, coords[i], oracles.dist(coords[j], coords[i])


@settings(max_examples=300, deadline=None)
@given(boundary_cases())
def test_closed_ball_boundary_property_all_dims(case):
    coords, center, radius = case
    ds = make_dataset(coords)
    pairs = as_pairs(ds)
    assert ball_ids(ds, center, radius) == oracles.brute_range_ids(pairs, center, radius)
    # The graph's rows: the center's row has a point exactly on its sphere.
    for (key, coords), row in zip(pairs, graph_rows(BallIndex(ds.coords), radius, ds.ids)):
        assert row == sorted(oracles.brute_range_ids(pairs, coords, radius))


@pytest.mark.parametrize("dim", range(1, 7))
def test_closed_ball_boundary_every_pair(rng, dim):
    ds = random_dataset(rng, 30, dim=dim, clustered=False)
    pairs = as_pairs(ds)
    for p in ds:
        for q in ds:
            radius = oracles.dist(q.coords, p.coords)
            assert balls(ds, radius)[p.id] == oracles.brute_range_ids(pairs, p.coords, radius)


@pytest.mark.parametrize("dim", range(1, 7))
def test_graph_rows_equal_queries(rng, monkeypatch, dim):
    # Small blocks, so rows straddle block boundaries.
    monkeypatch.setattr(geometry, "GRAPH_BLOCK_PAIRS", 7)
    ds = random_dataset(rng, 60, dim=dim)
    idx = BallIndex(ds.coords)
    # One radius per row; half of them reach exactly to another row's point.
    per_row = rng.uniform(0, 3, len(ds))
    targets = rng.integers(0, len(ds), len(ds))
    for i in range(0, len(ds), 2):
        per_row[i] = oracles.dist(idx.coords[i], idx.coords[targets[i]])
    pairs = as_pairs(ds)
    for radius in (0.0, 0.8, 2.5, 40.0, per_row):
        rows = graph_rows(idx, radius, ds.ids)
        for (key, coords), row, r in zip(pairs, rows, np.broadcast_to(radius, len(rows))):
            assert row == sorted(oracles.brute_range_ids(pairs, coords, r))
            assert key in row
    for i in range(0, len(ds), 2):
        assert ds.ids[targets[i]] in graph_rows(idx, per_row, ds.ids)[i]


@pytest.mark.parametrize("dim", range(1, 6))
def test_pair_blocks_of_a_subset_are_the_full_pairs_of_those_rows(rng, monkeypatch, dim):
    # Small blocks, so a block holds a few scattered rows of the subset. Against a column
    # subset, each pair and its distance (bit for bit) is one of the full pairs.
    monkeypatch.setattr(geometry, "GRAPH_BLOCK_PAIRS", 7)
    idx = BallIndex(random_dataset(rng, 80, dim=dim).coords)
    subsets = (np.flatnonzero(rng.random(80) < 0.3), np.array([79]), np.arange(80), np.array([], np.intp))
    for radius in (0.0, 1.5, rng.uniform(0, 3, 80)):
        full = {(r, c): d for _, _, rows, cols, dist in idx.pair_blocks(radius)
                for r, c, d in zip(rows.tolist(), cols.tolist(), dist.tolist())}
        full_indptr, full_cols, full_sums = idx.graph(radius)
        for subset in subsets:
            # The subset's graph rows are the full graph's; every other row is empty, the rows
            # between two blocks of the subset included.
            indptr, cols, sums = idx.graph(radius, subset)
            assert indptr[0] == 0 and cols.dtype == np.int32
            assert [cols[indptr[r]:indptr[r + 1]].tolist() for r in range(80)] == [
                full_cols[full_indptr[r]:full_indptr[r + 1]].tolist() if r in subset else [] for r in range(80)]
            assert sums.tolist() == [full_sums[r] if r in subset else 0.0 for r in range(80)]
            for columns in (None, *subsets):
                got, last = {}, 0
                for start, stop, rows, cols, dist in idx.pair_blocks(radius, subset, cols=columns):
                    block = subset[(start <= subset) & (subset < stop)]
                    assert last <= start == block[0] and stop == block[-1] + 1
                    assert set(rows.tolist()) <= set(block.tolist())
                    if columns is None:  # every row finds itself
                        assert set(rows.tolist()) == set(block.tolist())
                    assert (np.diff(rows * 80 + cols) > 0).all()  # by row, then col
                    got.update(zip(zip(rows.tolist(), cols.tolist()), dist.tolist()))
                    last = stop
                assert got == {(r, c): d for (r, c), d in full.items()
                               if r in subset and (columns is None or c in columns)}
    # Every row finds itself, so a budget of one candidate pair puts each row in a block of its own.
    monkeypatch.setattr(geometry, "GRAPH_BLOCK_PAIRS", 1)
    assert [start for start, *_ in idx.pair_blocks(1.5)] == list(range(80))


@pytest.mark.parametrize("dim", [1, 2, 5])
def test_graph_margin_sums_equal_the_oracle_bit_for_bit(rng, monkeypatch, dim):
    # Selection takes its first scores from these sums, so each must be the very float of
    # adding radius - d over the ball from 0.0 in ascending position, block seams included.
    monkeypatch.setattr(geometry, "GRAPH_BLOCK_PAIRS", 50)
    ds = random_dataset(rng, 120, dim=dim, spread=4.0)
    pairs, idx = as_pairs(ds), BallIndex(ds.coords)
    for radius in (1.5, rng.uniform(0, 3, len(ds))):
        per_row = np.broadcast_to(radius, len(ds)).tolist()
        assert idx.graph(radius)[2].tolist() == [
            oracles.stat_rep_q_brute(pairs, pid, r) for (pid, _), r in zip(pairs, per_row)]


def test_graph_of_empty_and_single_point_sets():
    indptr, cols, sums = BallIndex(np.empty((0, 3))).graph(1.0)
    assert indptr.tolist() == [0] and cols.tolist() == [] and sums.tolist() == []
    indptr, cols, sums = BallIndex([[2.0, 3.0]]).graph(1.0)
    assert indptr.tolist() == [0, 1] and cols.tolist() == [0] and sums.tolist() == [1.0]


@pytest.mark.parametrize("radius", [
    -0.5, float("nan"), float("inf"),
    pytest.param([1.0, float("nan")], id="row-nan"),
    pytest.param([float("inf"), 1.0], id="row-inf"),
    pytest.param([1.0, -0.5], id="row-negative"),
    pytest.param([1.0, 1.0, 1.0], id="one-row-too-many"),
    pytest.param([1.0], id="one-row-too-few"),
    pytest.param([[1.0, 1.0]], id="not-a-vector"),
])
def test_graph_rejects_bad_radius(radius):
    with pytest.raises(InputError):
        BallIndex(np.zeros((2, 2))).graph(radius)
    with pytest.raises(InputError):
        next(BallIndex(np.zeros((2, 2))).pair_blocks(radius))


def test_csv_roundtrip_and_determinism(tmp_path):
    ds = make_dataset([(0.125, -3.5), (1e-7, 42.0), (7.0, 7.0)])
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    save_dataset_csv(ds, path_a)
    save_dataset_csv(ds, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    back = load_dataset_csv(path_a)
    assert [(p.id, p.coords) for p in back] == [(p.id, p.coords) for p in ds]
    assert path_a.read_text().splitlines()[0] == "id,c0,c1"


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)


def test_csv_rejects_bad_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,c0,c1\n0,1.0\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)
    path.write_text("id,c0,c1\n0,1.0,zap\n")
    with pytest.raises(InputError):
        load_dataset_csv(path)
