"""Synthetic d-dimensional test datasets (2-D by default): Gaussian blobs plus uniform noise.

Three shipped kinds with different characters:
  A - several randomly placed clusters with moderate noise (8700 points),
  B - few clusters drowned in heavy noise (4000 points, 40% noise),
  C - three clean, well-separated clusters (1021 points).

Everything is driven by a single integer seed; the same spec always yields the
byte-identical dataset. The frozen per-kind (epsilon, min_pts) used by the
experiment harness live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
import numpy as np

from .clustering import GlobalParams
from .errors import InputError
from .geometry import Dataset, check_count, real_float

Bounds = tuple[tuple[float, float], ...]

_DEFAULT_BOUNDS: Bounds = ((0.0, 100.0), (0.0, 100.0))

CENTER_DRAW_LIMIT = 10_000  # uniform draws `_place_centers` may spend before it gives up
FIRST_DRAW_CHUNK = 16  # draws in its first batch; each later batch doubles, up to the limit


@dataclass(frozen=True)
class DatasetSpec:
    n_points: int = 1000
    n_clusters: int = 3
    noise_fraction: float = 0.0
    seed: int = 0
    bounds: Bounds = _DEFAULT_BOUNDS
    sigma_range: tuple[float, float] = (1.5, 2.5)
    min_center_separation: float = 25.0

    def __post_init__(self):
        check_count(self.n_points, "n_points")
        check_count(self.n_clusters, "n_clusters", 0)
        check_count(self.seed, "seed", 0)
        if not 0.0 <= real_float(self.noise_fraction) <= 1.0:
            raise InputError(f"noise_fraction must be a number in [0, 1], got {self.noise_fraction!r}")
        if not _is_bounds(self.bounds):
            raise InputError(f"bad bounds {self.bounds!r}: need one axis or more, "
                             f"each a pair of real numbers lo < hi with a finite span")
        sigma = tuple(map(real_float, self.sigma_range)) if isinstance(self.sigma_range, (tuple, list)) else ()
        if not (len(sigma) == 2 and 0.0 <= sigma[0] <= sigma[1] < math.inf):
            raise InputError(f"sigma_range must be two finite numbers with 0 <= low <= high, "
                             f"got {self.sigma_range!r}")
        if not 0.0 <= real_float(self.min_center_separation) < math.inf:
            raise InputError(f"min_center_separation must be finite and >= 0, "
                             f"got {self.min_center_separation!r}")


def _is_bounds(bounds) -> bool:
    try:
        axes = [(real_float(lo), real_float(hi)) for lo, hi in bounds]
    except (TypeError, ValueError):  # not a sequence of pairs
        return False
    return bool(axes) and all(lo < hi and math.isfinite(hi - lo) for lo, hi in axes)


# Shipped dataset kinds. Cardinalities are fixed; the geometry knobs were
# calibrated once on the frozen seeds used by the test suite.
_PRESETS: dict[str, DatasetSpec] = {
    "A": DatasetSpec(n_points=8700, n_clusters=8, noise_fraction=0.05,
                     sigma_range=(1.4, 2.6), min_center_separation=22.0),
    "B": DatasetSpec(n_points=4000, n_clusters=5, noise_fraction=0.40,
                     sigma_range=(1.6, 2.4), min_center_separation=24.0),
    "C": DatasetSpec(n_points=1021, n_clusters=3, noise_fraction=0.0,
                     sigma_range=(1.8, 2.2), min_center_separation=30.0),
}

# Frozen clustering parameters per dataset kind, used wherever a kind is
# clustered without explicit overrides.
CLUSTER_PARAMS: dict[str, GlobalParams] = {
    "A": GlobalParams(epsilon=2.0, min_pts=12),
    "B": GlobalParams(epsilon=1.8, min_pts=16),
    "C": GlobalParams(epsilon=2.0, min_pts=8),
}


def dataset_spec(kind: str, seed: int, **overrides) -> DatasetSpec:
    """Spec for a shipped kind (A, B, C) or a custom one, with overrides."""
    if kind in _PRESETS:
        return replace(_PRESETS[kind], seed=seed, **overrides)
    if kind == "custom":
        return DatasetSpec(seed=seed, **overrides)
    raise InputError(f"unknown dataset kind {kind!r} (expected A, B, C or custom)")


def _place_centers(rng: np.random.Generator, spec: DatasetSpec) -> np.ndarray:
    """Rejection-sample `spec.n_clusters` centres at least `min_center_separation` apart.

    Same stream: the centres, and the state `rng` is left in, are those of
    drawing one centre at a time and keeping a draw when `np.linalg.norm` puts
    it that far from every centre kept before it. Draws come in batches of
    doubling size; each draw's distance to its nearest kept centre, as a vector,
    screens them with a relative slack of 1e-9, so only draws that could pass
    meet that exact test. Then the generator is rewound and exactly the draws
    used are taken again, so the blob and noise draws that follow read the same
    stream. Raises InputError when `CENTER_DRAW_LIMIT` draws do not place them all.
    """
    lows = np.array([lo for lo, _ in spec.bounds])
    highs = np.array([hi for _, hi in spec.bounds])
    margin = np.minimum(3.0 * spec.sigma_range[1], (highs - lows) / 4.0)
    low, high = lows + margin, highs - margin
    sep = spec.min_center_separation
    start = rng.bit_generator.state
    centers: list[np.ndarray] = []
    used, chunk = 0, FIRST_DRAW_CHUNK
    while len(centers) < spec.n_clusters and used < CENTER_DRAW_LIMIT:
        draws = rng.uniform(low, high, size=(min(chunk, CENTER_DRAW_LIMIT - used), len(low)))
        nearest = np.full(len(draws), np.inf)
        for c in centers:
            np.minimum(nearest, np.linalg.norm(draws - c, axis=1), out=nearest)
        i = 0  # draws of this batch decided so far
        while len(centers) < spec.n_clusters:
            passing = np.flatnonzero(nearest[i:] >= sep * (1.0 - 1e-9))
            if not passing.size:
                i = len(draws)
                break
            i += int(passing[0])
            c = draws[i]
            i += 1
            if all(np.linalg.norm(c - other) >= sep for other in centers):
                centers.append(c)
                np.minimum(nearest, np.linalg.norm(draws - c, axis=1), out=nearest)
        used += i
        chunk *= 2
    if len(centers) < spec.n_clusters:
        raise InputError(
            f"cannot place {spec.n_clusters} centers {spec.min_center_separation} apart "
            f"within {spec.bounds}"
        )
    rng.bit_generator.state = start
    rng.uniform(low, high, size=(used, len(low)))
    return np.array(centers) if centers else np.empty((0, len(spec.bounds)))


def generate(spec: DatasetSpec) -> Dataset:
    """Materialize a spec into a Dataset; deterministic in spec.seed."""
    rng = np.random.default_rng(spec.seed)
    dim = len(spec.bounds)
    lows = np.array([lo for lo, _ in spec.bounds])
    highs = np.array([hi for _, hi in spec.bounds])

    n_noise = int(round(spec.n_points * spec.noise_fraction))
    n_blob = spec.n_points - n_noise
    if spec.n_clusters == 0:
        n_noise, n_blob = spec.n_points, 0

    rows: list[np.ndarray] = []
    if n_blob:
        centers = _place_centers(rng, spec)
        sizes = [n_blob // spec.n_clusters] * spec.n_clusters
        sizes[0] += n_blob - sum(sizes)
        for center, size in zip(centers, sizes):
            sigma = rng.uniform(*spec.sigma_range)
            pts = rng.normal(loc=center, scale=sigma, size=(size, dim))
            rows.append(np.clip(pts, lows, highs))
    if n_noise:
        rows.append(rng.uniform(lows, highs, size=(n_noise, dim)))

    return Dataset(np.arange(spec.n_points), np.vstack(rows))
