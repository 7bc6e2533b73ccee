import numpy as np
import pytest

from distclust import Dataset


def make_dataset(coord_list, dim=None):
    """Objects 0..n-1 at the given coordinates; `dim` is needed only for an empty list."""
    return Dataset(np.arange(len(coord_list)), np.reshape(coord_list, (len(coord_list), dim or -1)))


def as_pairs(ds):
    """Dataset -> [(id, coords)] pairs for the oracles."""
    return [(p.id, p.coords) for p in ds]


def random_dataset(rng: np.random.Generator, n: int, dim: int = 2, spread: float = 10.0,
                   clustered: bool = True) -> Dataset:
    """Random test instance: a few blobs plus uniform fill, or pure uniform."""
    rows = []
    if clustered and n >= 8:
        k = int(rng.integers(1, 4))
        centers = rng.uniform(0, spread, size=(k, dim))
        n_blob = n - n // 3
        sizes = [n_blob // k] * k
        sizes[0] += n_blob - sum(sizes)
        for c, s in zip(centers, sizes):
            rows.append(rng.normal(c, spread / 12, size=(s, dim)))
        rows.append(rng.uniform(0, spread, size=(n - n_blob, dim)))
    else:
        rows.append(rng.uniform(0, spread, size=(n, dim)))
    coords = np.vstack(rows)
    return make_dataset([tuple(map(float, row)) for row in coords])


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
