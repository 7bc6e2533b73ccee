"""Points, datasets, and the closed-ball range index with its Euclidean distance.

Every neighborhood in the pipeline is a row's closed ball from `BallIndex.pair_blocks` (and
so from `graph`, which also sums each row's margins), at one radius or one per row, of all
rows or any ascending subset of them, cut by the one distance formula of `BallIndex.distances`.
A point at distance exactly ``radius`` from the center is included, in every dimension.
Every scalar real input of the package is read by `real_float`, and every scalar integer by `check_count`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
from scipy.spatial import cKDTree

from .errors import InputError
from .tables import read_table, write_table

GRAPH_BLOCK_PAIRS = 2**13  # candidate pairs per block of BallIndex.pair_blocks; bounds its temporaries


@dataclass(frozen=True)
class Point:
    """A d-dimensional object: a stable int id >= 0 and d >= 1 finite real coordinates, as floats."""

    id: int
    coords: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "id", check_count(self.id, "point id", 0))
        coords = tuple(map(real_float, self.coords))
        if not coords or not all(map(math.isfinite, coords)):
            raise InputError(f"point {self.id}: coords must be one or more finite numbers, got {self.coords!r}")
        object.__setattr__(self, "coords", coords)


def real_float(value) -> float:
    """`value` as a float if it is a real number within the float range, else nan: numpy floats and
    integers count, bools and strings do not. Python floats and ints match before the slow ABC."""
    try:
        real = isinstance(value, (float, int, numbers.Real)) and not isinstance(value, bool)
        return float(value) if real else math.nan
    except OverflowError:  # an integer past the float range
        return math.nan


def check_epsilon(epsilon: float) -> float:
    """`epsilon` as a float; InputError unless it is a positive, finite real number."""
    if not 0 < real_float(epsilon) < math.inf:
        raise InputError(f"epsilon must be positive and finite, got {epsilon!r}")
    return float(epsilon)


def check_count(value: int, what: str, least: int = 1) -> int:
    """`value` as an int; InputError unless it is an integer >= `least` (numpy integers count, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) or value < least:
        raise InputError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


class Dataset:
    """Objects as two arrays: distinct non-negative int64 `ids` (n,) and finite
    float64 `coords` (n, dim), row i holding object ids[i]. Iterating yields
    `Point`s, built on demand."""

    def __init__(self, ids: Sequence[int] | np.ndarray, coords: Sequence[Sequence[float]] | np.ndarray):
        try:
            ids, coords = np.asarray(ids), np.asarray(coords, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as e:  # ragged, text, or past the float range
            raise InputError(f"dataset ids and coordinates must be rectangular arrays, "
                             f"the coordinates finite real numbers: {e}") from None
        if coords.ndim != 2 or coords.shape[1] < 1:
            raise InputError(f"coordinates must be an (n, d) array with d >= 1, got shape {coords.shape}")
        if ids.shape != (len(coords),):
            raise InputError(f"need one id per row of {len(coords)}, got ids of shape {ids.shape}")
        if len(ids) and not (ids.dtype.kind in "iu" and 0 <= ids.min() and ids.max() < 2**63):
            raise InputError("object ids must be integers in [0, 2**63)")
        ids = ids.astype(np.int64, copy=False)
        finite = np.isfinite(coords).all(axis=1)
        if not finite.all():
            raise InputError(f"object {ids[finite.argmin()]} has non-finite coordinates")
        ordered = np.sort(ids)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if len(repeated):
            raise InputError(f"object id {repeated[0]} appears more than once in the dataset")
        self.ids, self.coords, self.dim = ids, coords, coords.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Point]:
        return map(Point, self.ids.tolist(), self.coords.tolist())


class BallIndex:
    """Closed-ball range queries over an (n, d) coordinate array; row i is position i of it,
    and answers name rows by ascending position. Immutable once built (it keeps its own copy
    of `coords`) and safe for concurrent read-only queries."""

    def __init__(self, coords: np.ndarray):
        self.coords = np.array(coords, dtype=np.float64)
        if self.coords.ndim != 2:
            raise InputError(f"coordinates must be an (n, d) array, got shape {self.coords.shape}")
        n, self.dim = self.coords.shape
        with np.errstate(over="ignore"):
            if n and not np.isfinite(np.sum(np.ptp(self.coords, axis=0) ** 2)):
                raise InputError("coordinates span too far: their squared distances can overflow")
        self._tree = cKDTree(self.coords)

    def distances(self, positions: np.ndarray, centers: np.ndarray) -> np.ndarray:
        """Euclidean distance from each row at `positions` to `centers` (one point,
        or one per position): the square root of the squared coordinate differences
        summed left to right, column 0 first. Every closed ball is cut by this one
        formula, so membership agrees bit for bit in every dimension."""
        diff = self.coords.take(positions, axis=0) - centers
        diff *= diff
        square = np.zeros(len(positions))
        for k in range(self.dim):
            square += diff[:, k]
        return np.sqrt(square)

    def pair_blocks(self, radius: float | np.ndarray, rows: np.ndarray | None = None,
                    cols: np.ndarray | None = None, counts: np.ndarray | None = None
                    ) -> Iterator[tuple[int, int, np.ndarray, np.ndarray, np.ndarray]]:
        """The closed balls of ascending positions `rows` (default: all) at `radius` (one, or one per
        row of the index), cut to the ascending positions `cols` (default: all), in blocks of about
        `GRAPH_BLOCK_PAIRS` candidates (`counts`, per row, if known):
        per block of rows in start..stop-1, (start, stop, rows, cols, distances), pairs by row, then col."""
        radius, n = self._check_radius(radius), len(self.coords)
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        if not len(rows):
            return
        if cols is not None:
            cols = np.asarray(cols, dtype=np.intp)
        tree = self._tree if cols is None else cKDTree(self.coords[cols])
        if counts is None:
            counts = tree.query_ball_point(self.coords[rows], _inflate(radius[rows]), return_length=True)
        # A block ends where its candidates pass a multiple of the budget.
        cuts = np.flatnonzero(np.diff((np.cumsum(counts) - counts) // GRAPH_BLOCK_PAIRS)) + 1
        for block in np.split(rows, cuts):
            found = cKDTree(self.coords[block]).sparse_distance_matrix(
                tree, _inflate(radius[block].max()), output_type="ndarray")
            found_cols = found["j"] if cols is None else cols[found["j"]]
            pair_rows, pair_cols = np.divmod(np.sort(block[found["i"]] * n + found_cols), n)
            dist = self.distances(pair_cols, self.coords.take(pair_rows, axis=0))
            keep = dist <= radius[pair_rows]
            yield block[0], block[-1] + 1, pair_rows[keep], pair_cols[keep], dist[keep]

    def graph(self, radius: float | np.ndarray, rows: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays (indptr, cols) of the closed balls of ascending positions `rows` (default: all)
        at `radius` (one, or one per row): row i's ascending int32 positions cols[indptr[i]:indptr[i + 1]]
        are the rows of its ball, and every row outside `rows` is empty. Third, each row's margin sum:
        radius - d over its ball, added from 0.0 in column order."""
        radius, n = self._check_radius(radius), len(self.coords)
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        # The tree's candidate count bounds the columns, so they fill one array in place.
        counts = self._tree.query_ball_point(self.coords[rows], _inflate(radius[rows]), return_length=True)
        cols = np.empty(counts.sum(), np.int32)
        sizes, sums, filled = np.zeros(n, np.intp), np.zeros(n), 0
        for start, stop, pair_rows, block, dist in self.pair_blocks(radius, rows, counts=counts):
            sizes[start:stop] = np.bincount(pair_rows - start, minlength=stop - start)
            sums[start:stop] = np.bincount(pair_rows - start, radius[pair_rows] - dist, stop - start)
            cols[filled:filled + len(block)] = block
            filled += len(block)
        return np.concatenate(([0], sizes.cumsum())), cols[:filled], sums

    def _check_radius(self, radius: float | np.ndarray) -> np.ndarray:
        # One radius per row; an infinite one would ask for all n * n pairs.
        n, radius = len(self.coords), np.asarray(radius, dtype=np.float64)
        if radius.shape not in ((), (n,)) or not np.all((0 <= radius) & (radius < math.inf)):
            raise InputError(f"need one finite, non-negative radius or one per row of {n}, got {radius}")
        return np.broadcast_to(radius, (n,))


def _inflate(radius: float | np.ndarray) -> float | np.ndarray:
    # A larger ball for the tree, cut back with `distances`: squared distances can drop
    # an exact-boundary row, and the 1e-150 keeps the squared radius from going subnormal.
    return radius * (1 + 1e-9) + 1e-150


def save_dataset_csv(ds: Dataset, path: str | Path) -> None:
    """Write `id,c0,...,c{d-1}` header plus one row per point."""
    write_table(path, ["id"] + [f"c{k}" for k in range(ds.dim)],
                ([i, *row] for i, row in zip(ds.ids.tolist(), ds.coords.tolist())))


def load_dataset_csv(path: str | Path) -> Dataset:
    rows = read_table(path, _dataset_schema)
    try:
        return Dataset(rows["id"].copy(), np.ascontiguousarray(rows["c"]))
    except InputError as e:
        raise InputError(f"{path}: {e}") from None


def _dataset_schema(width: int) -> tuple[list[str], np.dtype]:
    dim = max(width - 1, 1)
    return ["id", *(f"c{k}" for k in range(dim))], np.dtype([("id", np.int64), ("c", np.float64, (dim,))])
