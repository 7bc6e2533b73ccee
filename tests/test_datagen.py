import pytest

from distclust import CLUSTER_PARAMS, InputError, reference_dbscan, save_dataset_csv
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
    with pytest.raises(InputError):
        DatasetSpec(noise_fraction=1.5)
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


def test_impossible_center_separation_rejected():
    spec = dataset_spec("custom", seed=0, n_points=100, n_clusters=50,
                        min_center_separation=90.0)
    with pytest.raises(InputError):
        generate(spec)
