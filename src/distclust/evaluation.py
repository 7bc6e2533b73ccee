"""Quality of a distributed labeling against a centralized one, and the transmission cost.

`evaluate` is the one scorer: from one contingency table it gives the headline
matching quality (distributed and reference clusters matched one-to-one by
maximum overlap, noise only to noise, scoring the fraction of objects that land
consistently) and the adjusted Rand index, a matching-free cross-check.

The cost is priced at fixed sizes: a raw object is `BYTES_PER_OBJECT` bytes, and a
representative is one object plus its two aggregates (`cov_rad`, `cov_cnt`) of
`BYTES_PER_AGGREGATE` bytes each, 108 bytes in all.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

import numpy as np
from scipy.optimize import linear_sum_assignment

from .clustering import NOISE
from .errors import InputError
from .geometry import check_count
from .tables import write_table

BYTES_PER_OBJECT = 100
BYTES_PER_AGGREGATE = 4


@dataclass(frozen=True)
class QualityReport:
    """What `evaluate` measures; the cluster counts leave out NOISE."""

    matching_quality: float
    adjusted_rand: float
    n_objects: int
    n_clusters_distributed: int
    n_clusters_reference: int

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class TransmissionCost:
    bytes_distributed: int
    bytes_full: int
    speedup: float


def _table(dist: Mapping[int, int], ref: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The contingency table of two labelings of the same ids: sorted distributed
    cluster ids, sorted reference ids and the int64 object count of each cell."""
    if dist.keys() != ref.keys():  # set comparison of the key views, nothing copied
        raise InputError(f"labelings cover different id sets ({len(dist.keys() - ref.keys())} extra "
                         f"distributed, {len(ref.keys() - dist.keys())} extra reference)")
    kinds = set(map(type, dist.values())) | set(map(type, ref.values()))
    if not all(issubclass(kind, (int, np.integer)) and kind is not bool for kind in kinds):
        bad = next(v for v in (*dist.values(), *ref.values())
                   if isinstance(v, bool) or not isinstance(v, (int, np.integer)))
        raise InputError(f"cluster ids must be integers, got {bad!r}")
    try:
        d = np.fromiter(dist.values(), dtype=np.int64, count=len(dist))
        r = np.fromiter(map(ref.__getitem__, dist), dtype=np.int64, count=len(dist))
    except OverflowError:
        raise InputError("labeling contains a cluster id outside 0..2**63-1") from None
    for labels in (d, r):
        if (labels < 0).any():
            raise InputError(f"labeling contains negative cluster ids, e.g. {labels[labels < 0][0]}")
    d_ids, d_row = np.unique(d, return_inverse=True)
    r_ids, r_col = np.unique(r, return_inverse=True)
    cells = np.bincount(d_row * len(r_ids) + r_col, minlength=len(d_ids) * len(r_ids))
    return d_ids, r_ids, cells.reshape(len(d_ids), len(r_ids))


def _matching_quality(d_ids: np.ndarray, r_ids: np.ndarray, table: np.ndarray) -> float:
    if not table.size:
        return 1.0
    d_noise, r_noise = int(d_ids[0] == NOISE), int(r_ids[0] == NOISE)  # ids ascend from 0
    overlap = table[d_noise:, r_noise:]
    matched = int(table[0, 0]) if d_noise and r_noise else 0
    if overlap.size:
        rows, cols = linear_sum_assignment(overlap, maximize=True)
        matched += int(overlap[rows, cols].sum())
    return matched / int(table.sum())


def _adjusted_rand(table: np.ndarray) -> float:
    def pairs(counts: np.ndarray) -> int:  # a Python int, so the products below cannot wrap
        return int((counts * (counts - 1) // 2).sum())

    all_pairs = pairs(table.sum())
    if all_pairs == 0:
        return 1.0
    sum_cells, sum_rows, sum_cols = pairs(table), pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = sum_rows * sum_cols / all_pairs
    maximum = (sum_rows + sum_cols) / 2
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def transmission_cost(n_reps: int, n_total: int) -> TransmissionCost:
    """Bytes for sending n_reps representatives (point + two aggregates each)
    versus shipping all n_total raw objects, and the resulting speedup."""
    check_count(n_reps, "n_reps", 0)
    check_count(n_total, "n_total", n_reps)
    bytes_distributed = n_reps * (BYTES_PER_OBJECT + 2 * BYTES_PER_AGGREGATE)
    bytes_full = n_total * BYTES_PER_OBJECT
    speedup = math.inf if bytes_distributed == 0 else bytes_full / bytes_distributed
    return TransmissionCost(bytes_distributed, bytes_full, speedup)


def evaluate(dist: Mapping[int, int], ref: Mapping[int, int]) -> QualityReport:
    """Score a distributed labeling against the reference; both map the same ids to cluster ids >= 0.

    `matching_quality` is the fraction of objects labeled consistently under the best one-to-one
    matching of distributed to reference clusters, where noise matches only noise. `adjusted_rand`
    is the pair-counting adjusted Rand index, counting noise as an ordinary class. The degenerate
    cases (no objects; an adjusted Rand denominator of 0, which only identical partitions reach) score 1.0.
    """
    d_ids, r_ids, table = _table(dist, ref)
    return QualityReport(
        matching_quality=_matching_quality(d_ids, r_ids, table),
        adjusted_rand=_adjusted_rand(table),
        n_objects=len(dist),
        n_clusters_distributed=int(np.count_nonzero(d_ids)),
        n_clusters_reference=int(np.count_nonzero(r_ids)),
    )


def write_cost_csv(n_reps: int, n_total: int, path: str | Path) -> None:
    """The cost of n_reps representatives against n_total objects as one
    `frac,bytes_distributed,bytes_full,speedup` row; priced before the file is
    opened, so bad counts write nothing."""
    cost = transmission_cost(n_reps, n_total)
    frac = n_reps / n_total if n_total else 0.0
    write_table(path, ["frac", "bytes_distributed", "bytes_full", "speedup"],
                [(frac, cost.bytes_distributed, cost.bytes_full, cost.speedup)])
