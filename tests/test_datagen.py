import math

import numpy as np
import pytest

import oracles
from distclust import CLUSTER_PARAMS, InputError, datagen, reference_dbscan, save_dataset_csv
from distclust.datagen import DatasetSpec, dataset_spec, generate


def test_kind_cardinalities():
    assert len(generate(dataset_spec("A", seed=3))) == 8700
    assert len(generate(dataset_spec("B", seed=3))) == 4000
    assert len(generate(dataset_spec("C", seed=3))) == 1021


def test_same_seed_is_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    save_dataset_csv(generate(dataset_spec("B", seed=11)), a)
    save_dataset_csv(generate(dataset_spec("B", seed=11)), b)
    assert a.read_bytes() == b.read_bytes()


def test_different_seeds_differ():
    da = generate(dataset_spec("C", seed=1))
    db = generate(dataset_spec("C", seed=2))
    assert da.coords[0].tolist() != db.coords[0].tolist()


def test_points_stay_inside_bounds():
    spec = dataset_spec("B", seed=5)
    ds = generate(spec)
    for (lo, hi), col in zip(spec.bounds, ds.coords.T):
        assert col.min() >= lo and col.max() <= hi


def test_ids_are_dense_range():
    ds = generate(dataset_spec("C", seed=9))
    assert [p.id for p in ds] == list(range(1021))


def test_kind_c_reference_finds_three_clusters():
    params = CLUSTER_PARAMS["C"]
    for seed in (1, 7, 20260809):
        labeling = reference_dbscan(generate(dataset_spec("C", seed=seed)), params)
        assert labeling.n_clusters == 3


def test_custom_kind():
    spec = dataset_spec("custom", seed=4, n_points=200, n_clusters=2, noise_fraction=0.1)
    ds = generate(spec)
    assert len(ds) == 200


def test_pure_noise_dataset():
    spec = dataset_spec("custom", seed=4, n_points=50, n_clusters=0, noise_fraction=1.0)
    assert len(generate(spec)) == 50


def test_invalid_specs_rejected():
    for noise_fraction in (1.5, True, "0.5"):
        with pytest.raises(InputError, match="noise_fraction"):
            DatasetSpec(noise_fraction=noise_fraction)
    with pytest.raises(InputError):
        DatasetSpec(n_points=0)
    with pytest.raises(InputError):
        dataset_spec("Z", seed=0)
    with pytest.raises(InputError):
        DatasetSpec(bounds=((1.0, 1.0),))
    with pytest.raises(InputError, match="seed"):
        DatasetSpec(seed=-1)
    with pytest.raises(InputError, match="n_clusters"):
        DatasetSpec(n_clusters=-1)
    for field in ("n_points", "n_clusters"):
        for value in (2.5, True):
            with pytest.raises(InputError, match=f"{field} must be an integer"):
                DatasetSpec(**{field: value})
    for sigma_range in ((-1.0, -0.5), (-1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0,),
                        "ab", ("a", "b"), (True, True), (1.0, False), 2.0, None, (0, 10**400)):
        with pytest.raises(InputError, match="sigma_range"):
            DatasetSpec(sigma_range=sigma_range)
    for axis in ((0.0, math.inf), (-math.inf, 0.0), (math.nan, 1.0), (-1e308, 1e308), (0, 10**400)):
        with pytest.raises(InputError, match="bounds"):
            DatasetSpec(bounds=(axis, (0.0, 1.0)))
    for bounds in ((), ((0.0,),), ((0.0, 1.0, 2.0),), (("a", "b"),)):
        with pytest.raises(InputError, match="bounds"):
            DatasetSpec(bounds=bounds)
    for separation in (math.nan, math.inf, -1.0, "3", True, None, 10**400):
        for n_clusters in (1, 2):
            with pytest.raises(InputError, match="min_center_separation"):
                DatasetSpec(n_clusters=n_clusters, min_center_separation=separation)


def test_impossible_center_separation_rejected():
    spec = dataset_spec("custom", seed=0, n_points=100, n_clusters=50,
                        min_center_separation=90.0)
    with pytest.raises(InputError):
        generate(spec)


def _placement(place, spec, **limit):
    """Centres and the generator's state after `place`, or the InputError it raised."""
    rng = np.random.default_rng(spec.seed)
    try:
        centers = place(rng, spec, **limit)
    except InputError as e:
        return e
    return centers, rng.bit_generator.state


def assert_placement_is_one_at_a_time(spec, limit=datagen.CENTER_DRAW_LIMIT) -> bool:
    """The batched placement keeps the centres, and leaves the generator where, drawing
    one at a time does; True when both give up."""
    got = _placement(datagen._place_centers, spec)
    expected = _placement(oracles.place_centers_one_at_a_time, spec, limit=limit)
    if isinstance(expected, InputError):
        assert isinstance(got, InputError) and str(got) == str(expected)
        return True
    assert not isinstance(got, InputError), got
    (centers, state), (want, want_state) = got, expected
    assert np.array_equal(centers, want) and state == want_state
    return False


def test_center_placement_matches_drawing_one_at_a_time():
    for kind in "ABC":
        for seed in [*range(10), 20260809]:
            assert not assert_placement_is_one_at_a_time(dataset_spec(kind, seed))
    # dense-20k's spec: about 3000 draws per placement, and two seeds that give up.
    gave_up = [seed for seed in range(16) if assert_placement_is_one_at_a_time(
        dataset_spec("custom", seed, n_points=20000, n_clusters=10, noise_fraction=0.1))]
    assert gave_up == [10, 12]
    # In 1-D, three centres 25 apart fit in [7.5, 92.5] only if the first draws leave room.
    gave_up = [seed for seed in range(10) if assert_placement_is_one_at_a_time(dataset_spec(
        "custom", seed, n_points=300, n_clusters=3, bounds=((0.0, 100.0),)))]
    assert gave_up == [2, 5, 9]
    for seed in range(10):
        assert not assert_placement_is_one_at_a_time(dataset_spec(
            "custom", seed, n_points=500, n_clusters=4, bounds=((0.0, 100.0),) * 5))


def test_center_placement_gives_up_after_the_draw_limit(monkeypatch):
    # Kind A at this seed places its last centre on draw 19, so the limits run
    # from before that draw, through it, to past it.
    spec = dataset_spec("A", 20260809)
    gave_up = []
    for limit in range(1, 41):
        monkeypatch.setattr(datagen, "CENTER_DRAW_LIMIT", limit)
        gave_up.append(assert_placement_is_one_at_a_time(spec, limit))
    assert gave_up == [True] * 18 + [False] * 22
