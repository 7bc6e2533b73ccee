"""Quality metrics against a centralized labeling, and the transmission-cost model.

The headline metric is a matching quality: distributed and reference clusters
are matched one-to-one by maximum overlap, noise may only match noise, and the
score is the fraction of objects that land consistently. The adjusted Rand
index is computed alongside as a matching-free cross-check.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import InputError
from .tables import write_table

_NOISE = 0


@dataclass(frozen=True)
class QualityReport:
    matching_quality: float
    adjusted_rand: float
    n_objects: int
    n_clusters_distributed: int
    n_clusters_reference: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class CostModel:
    """Payload sizes in bytes: one per raw object, one per transmitted aggregate
    (each representative carries two aggregates)."""

    bytes_per_object: int
    bytes_per_aggregate: int = 4

    def __post_init__(self):
        if self.bytes_per_object <= 0 or self.bytes_per_aggregate <= 0:
            raise InputError("cost model byte sizes must be positive")


@dataclass(frozen=True)
class TransmissionCost:
    bytes_distributed: int
    bytes_full: int
    speedup: float


def _check_same_ids(dist: Mapping[int, int], ref: Mapping[int, int]) -> None:
    if dist.keys() != ref.keys():  # set comparison of the key views, nothing copied
        only_d = len(set(dist) - set(ref))
        only_r = len(set(ref) - set(dist))
        raise InputError(
            f"labelings cover different id sets ({only_d} extra distributed, {only_r} extra reference)"
        )


def _cluster_ids(labels: Mapping[int, int]) -> list[int]:
    bad = [v for v in labels.values() if v < 0]
    if bad:
        raise InputError(f"labeling contains negative cluster ids, e.g. {bad[0]}")
    return sorted({v for v in labels.values() if v != _NOISE})


def matching_quality(dist: Mapping[int, int], ref: Mapping[int, int]) -> float:
    """Fraction of objects consistently labeled under the best one-to-one
    matching of distributed clusters to reference clusters.

    Noise is its own class: it is never matched to a real cluster, so an
    object only counts when both sides call it noise, or both sides put it
    into a matched cluster pair.
    """
    _check_same_ids(dist, ref)
    n = len(dist)
    if n == 0:
        return 1.0
    d_ids = _cluster_ids(dist)
    r_ids = _cluster_ids(ref)
    counts = Counter((dist[i], ref[i]) for i in dist)
    noise_both = counts.get((_NOISE, _NOISE), 0)
    matched = 0
    if d_ids and r_ids:
        d_pos = {c: k for k, c in enumerate(d_ids)}
        r_pos = {c: k for k, c in enumerate(r_ids)}
        overlap = np.zeros((len(d_ids), len(r_ids)), dtype=np.int64)
        for (dc, rc), cnt in counts.items():
            if dc != _NOISE and rc != _NOISE:
                overlap[d_pos[dc], r_pos[rc]] = cnt
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        matched = int(overlap[rows, cols].sum())
    return (matched + noise_both) / n


def adjusted_rand(dist: Mapping[int, int], ref: Mapping[int, int]) -> float:
    """Pair-counting adjusted Rand index with noise treated as an ordinary class.

    1.0 for identical partitions; the degenerate cases where the formula's
    denominator vanishes (both sides one cluster, or both all singletons) only
    arise for identical partitions and also return 1.0.
    """
    _check_same_ids(dist, ref)
    n = len(dist)

    def comb2(x: int) -> int:
        return x * (x - 1) // 2

    if comb2(n) == 0:
        return 1.0
    pair_counts = Counter((dist[i], ref[i]) for i in dist)
    sum_cells = sum(comb2(c) for c in pair_counts.values())
    sum_rows = sum(comb2(c) for c in Counter(dist.values()).values())
    sum_cols = sum(comb2(c) for c in Counter(ref.values()).values())
    expected = sum_rows * sum_cols / comb2(n)
    maximum = (sum_rows + sum_cols) / 2
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def transmission_cost(n_reps: int, n_total: int, model: CostModel) -> TransmissionCost:
    """Bytes for sending n_reps representatives (point + two aggregates each)
    versus shipping all n_total raw objects, and the resulting speedup."""
    if not 0 <= n_reps <= n_total:
        raise InputError(f"need 0 <= n_reps <= n_total, got {n_reps} and {n_total}")
    bytes_distributed = n_reps * (model.bytes_per_object + 2 * model.bytes_per_aggregate)
    bytes_full = n_total * model.bytes_per_object
    speedup = math.inf if bytes_distributed == 0 else bytes_full / bytes_distributed
    return TransmissionCost(bytes_distributed, bytes_full, speedup)


def evaluate(dist: Mapping[int, int], ref: Mapping[int, int]) -> QualityReport:
    """Full quality report for a distributed labeling against the reference."""
    return QualityReport(
        matching_quality=matching_quality(dist, ref),
        adjusted_rand=adjusted_rand(dist, ref),
        n_objects=len(dist),
        n_clusters_distributed=len(_cluster_ids(dist)),
        n_clusters_reference=len(_cluster_ids(ref)),
    )


def write_cost_csv(rows: Iterable[tuple[float, TransmissionCost]], path: str | Path) -> None:
    """Cost figures as `frac,bytes_distributed,bytes_full,speedup` rows."""
    write_table(path, ["frac", "bytes_distributed", "bytes_full", "speedup"],
                ((frac, cost.bytes_distributed, cost.bytes_full, cost.speedup) for frac, cost in rows))
