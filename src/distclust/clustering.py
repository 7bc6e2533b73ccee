"""Global clustering of representative streams, plus a centralized reference.

The global algorithm is a weighted DBSCAN variant: every range query around a
representative r uses the enlarged radius epsilon + cov_rad(r), and the core
test sums the cov_cnt weights of the representatives found instead of counting
them. With cov_rad = 0 and cov_cnt = 1 everywhere it degenerates term by term
to the textbook algorithm that `reference_dbscan` runs as the centralized
baseline. Both are one density expansion (`_expand`) over closed-ball
`BallIndex` neighborhoods; they differ only in the query radius and in the
weight of a neighborhood (the sum of cov_cnt, or the plain count).

Cluster ids: -1 marks UNCLASSIFIED (never survives a completed run), 0 is
NOISE, and real clusters are numbered 1..K in discovery order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import InputError
from .geometry import BallIndex, Dataset, check_epsilon
from .representatives import RepresentativeRecord
from .tables import read_int_table, write_int_table

UNCLASSIFIED = -1
NOISE = 0
GLOBAL_LABELS_HEADER = ("site", "seq", "cluster_id")
REFERENCE_LABELS_HEADER = ("id", "cluster_id")


@dataclass(frozen=True)
class GlobalParams:
    """Base epsilon (shared with the local sites) and the MinPts threshold."""

    epsilon: float
    min_pts: int

    def __post_init__(self):
        check_epsilon(self.epsilon)
        if self.min_pts < 1:
            raise InputError(f"min_pts must be >= 1, got {self.min_pts}")


@dataclass
class GlobalLabeling:
    """Cluster ids keyed by (site, seq)."""

    labels: dict[tuple[int, int], int]

    @property
    def n_clusters(self) -> int:
        return len({v for v in self.labels.values() if v >= 1})


@dataclass
class ReferenceLabeling:
    """Cluster ids keyed by object id."""

    labels: dict[int, int]

    @property
    def n_clusters(self) -> int:
        return len({v for v in self.labels.values() if v >= 1})


def enlarged_radius(rep: RepresentativeRecord, params: GlobalParams) -> float:
    """Query radius used around `rep` on the global site."""
    if rep.cov_rad < 0:
        raise InputError(f"cov_rad must be non-negative, got {rep.cov_rad}")
    return params.epsilon + rep.cov_rad


def global_dbscan(reps: Sequence[RepresentativeRecord], params: GlobalParams) -> GlobalLabeling:
    """Cluster representatives in input order with per-representative enlarged
    radii and cov_cnt-weighted core tests.

    A start representative whose weighted neighborhood stays below min_pts is
    labeled NOISE; it may still be absorbed later as a border member of a
    cluster. Expansion enqueues UNCLASSIFIED neighbors of core representatives
    only. Deterministic: same input sequence and params, same labeling.
    """
    records = list(reps)
    if not records:
        return GlobalLabeling({})
    dims = {p.point.dim for p in records}
    if len(dims) != 1:
        raise InputError(f"representatives have mixed dimensions {sorted(dims)}")
    coords = np.array([r.point.coords for r in records], dtype=np.float64)
    cov_rad = np.array([r.cov_rad for r in records], dtype=np.float64)
    cov_cnt = np.array([r.cov_cnt for r in records], dtype=np.int64)
    if (cov_rad < 0).any() or not np.isfinite(cov_rad).all() or (cov_cnt < 0).any():
        raise InputError("coverage aggregates must be non-negative and finite")
    index = BallIndex(coords)
    labels = _expand(
        len(records),
        lambda i: index.query(coords[i], params.epsilon + cov_rad[i])[0],
        lambda nbrs: int(cov_cnt[nbrs].sum()),
        params.min_pts,
    )
    return GlobalLabeling({rec.key: label for rec, label in zip(records, labels)})


def reference_dbscan(ds: Dataset, params: GlobalParams) -> ReferenceLabeling:
    """Textbook density-based clustering of the full dataset.

    Closed epsilon-balls; a point is core when its neighborhood, itself
    included, holds at least min_pts points. Visits points in dataset order.
    Serves as the centralized baseline the distributed result is judged
    against.
    """
    index = BallIndex(ds.coords)
    labels = _expand(
        len(ds),
        lambda i: index.query(ds.coords[i], params.epsilon)[0],
        len,
        params.min_pts,
    )
    return ReferenceLabeling({p.id: label for p, label in zip(ds.points, labels)})


def _expand(n: int, neighborhood: Callable[[int], np.ndarray],
            weight: Callable[[np.ndarray], int], min_pts: int) -> list[int]:
    """Density expansion over items 0..n-1, visited in that order.

    `neighborhood(i)` lists the items within reach of i (itself included) and
    i is core when `weight` of that list reaches min_pts. Returns a label per
    item: NOISE or a cluster id 1..K in discovery order.
    """
    labels = [UNCLASSIFIED] * n
    next_cluster = 1
    for start in range(n):
        if labels[start] != UNCLASSIFIED:
            continue
        seeds = neighborhood(start)
        if weight(seeds) < min_pts:
            labels[start] = NOISE
            continue
        seeds = seeds.tolist()
        for s in seeds:
            if labels[s] in (UNCLASSIFIED, NOISE):
                labels[s] = next_cluster
        frontier = deque(s for s in seeds if s != start)
        while frontier:
            nbrs = neighborhood(frontier.popleft())
            if weight(nbrs) >= min_pts:
                for q in nbrs.tolist():
                    if labels[q] == UNCLASSIFIED:
                        frontier.append(q)
                        labels[q] = next_cluster
                    elif labels[q] == NOISE:
                        labels[q] = next_cluster
        next_cluster += 1
    return labels


def save_global_labels_csv(labeling: GlobalLabeling, path: str | Path) -> None:
    write_int_table(path, GLOBAL_LABELS_HEADER,
                    ((site, seq, cid) for (site, seq), cid in sorted(labeling.labels.items())))


def load_global_labels_csv(path: str | Path) -> GlobalLabeling:
    return GlobalLabeling(read_int_table(path, GLOBAL_LABELS_HEADER, n_key=2))


def save_reference_labels_csv(labeling: ReferenceLabeling | Mapping[int, int],
                              path: str | Path) -> None:
    labels = labeling.labels if isinstance(labeling, ReferenceLabeling) else labeling
    write_int_table(path, REFERENCE_LABELS_HEADER, sorted(labels.items()))


def load_reference_labels_csv(path: str | Path) -> ReferenceLabeling:
    return ReferenceLabeling(read_int_table(path, REFERENCE_LABELS_HEADER))
