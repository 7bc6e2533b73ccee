"""Output checks computed apart from the program.

Nothing here calls into ``distclust``. Neighbourhoods come from a scipy
k-d tree queried at a slightly inflated radius and are then cut back with the
package's distance formula (plain left-to-right sum of squares, then sqrt), so
closed-ball membership agrees bit for bit with the program's definition.

Every checker returns a list of problems; an empty list means the output
passed. The checkers take plain data (ids, coordinate arrays, ``Rec`` tuples,
label dicts), so they accept outputs read back from files as well as objects
returned in memory.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial import cKDTree

NOISE = 0
BYTES_PER_RECORD = 100 + 2 * 4  # cost model: one object plus two 4-byte aggregates
_INFLATE = 1.0 + 1e-9  # candidate radius slack; exact filtering follows


class Rec(NamedTuple):
    """One transmitted representative; ``oid`` is None when read from a stream file."""

    site: int
    seq: int
    coords: tuple[float, ...]
    cov_rad: float
    cov_cnt: int
    oid: int | None = None


@dataclass
class Cell:
    """Everything one pipeline cell (one budget, one site count) produced."""

    fraction: float
    site_ids: list[np.ndarray]
    site_coords: list[np.ndarray]
    records: list[list[Rec]]  # per site, in stream order
    owners: list[dict[int, int]]  # per site: object id -> owning seq
    merged_keys: list[tuple[int, int]] | None  # global visit order, when exposed
    global_labels: dict[tuple[int, int], int]
    distributed: dict[int, int]
    quality: float
    ari: float
    bytes: int | None  # cost-model bytes, when the path reports them


def distances(coords: np.ndarray, center) -> np.ndarray:
    """The package's Euclidean formula, applied row-wise."""
    center = np.asarray(center, dtype=np.float64)
    total = np.zeros(len(coords))
    for k in range(coords.shape[1]):
        diff = coords[:, k] - center[k]
        total = total + diff * diff
    return np.sqrt(total)


def expected_count(fraction: float, n: int) -> int:
    """Records a site of n objects sends under a fraction budget: floor(frac * n), at least 1."""
    return max(1, math.floor(Fraction(str(fraction)) * n))


def dbscan(coords: np.ndarray, radii: np.ndarray, weights: np.ndarray, min_pts: int) -> np.ndarray:
    """Textbook density-based clustering, transcribed with per-object radii and weights.

    Objects are visited in row order. The neighbourhood of i is every j with
    dist(i, j) <= radii[i] (closed ball, i itself included); i is core when the
    weights over its neighbourhood sum to at least min_pts. A core start claims
    its unclassified and noise neighbours; expansion enqueues unclassified
    neighbours of core objects only. With unit weights and a constant radius
    this is plain DBSCAN; with radius eps + cov_rad and weight cov_cnt it is
    the weighted variant run on the global site. Returns 0 for noise and
    cluster ids 1..K in discovery order.
    """
    n = len(coords)
    labels = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return labels
    tree = cKDTree(coords)

    def neighbours(i: int) -> np.ndarray:
        cand = np.array(tree.query_ball_point(coords[i], radii[i] * _INFLATE), dtype=np.int64)
        return np.sort(cand[distances(coords[cand], coords[i]) <= radii[i]])

    cluster = 0
    for start in range(n):
        if labels[start] != -1:
            continue
        seeds = neighbours(start)
        if int(weights[seeds].sum()) < min_pts:
            labels[start] = NOISE
            continue
        cluster += 1
        labels[seeds[labels[seeds] <= NOISE]] = cluster
        frontier = deque(int(s) for s in seeds if s != start)
        while frontier:
            nbrs = neighbours(frontier.popleft())
            if int(weights[nbrs].sum()) >= min_pts:
                now = labels[nbrs]
                frontier.extend(int(q) for q in nbrs[now == -1])
                labels[nbrs[now <= NOISE]] = cluster
    return labels


def _diff_dicts(what: str, got: dict, want: dict) -> list[str]:
    if got == want:
        return []
    missing = want.keys() - got.keys()
    extra = got.keys() - want.keys()
    wrong = [k for k in want.keys() & got.keys() if got[k] != want[k]]
    return [f"{what}: {len(wrong)} differ, {len(missing)} missing, {len(extra)} unexpected "
            f"(e.g. {(wrong or sorted(missing) or sorted(extra))[0]!r})"]


def check_reference(ids: np.ndarray, coords: np.ndarray, labels: dict[int, int],
                    eps: float, min_pts: int) -> tuple[list[str], dict[int, int]]:
    """The centralized labels against textbook DBSCAN in dataset order."""
    n = len(coords)
    expected = dbscan(coords, np.full(n, eps), np.ones(n, dtype=np.int64), min_pts)
    want = {int(i): int(c) for i, c in zip(ids, expected)}
    return _diff_dicts("reference labels", labels, want), want


def check_selection(site: int, ids: np.ndarray, coords: np.ndarray, records: list[Rec],
                    owners: dict[int, int], eps: float,
                    fraction: float) -> tuple[list[str], dict[int, int]]:
    """Replay one site's stream: record s owns the objects of its closed eps-ball
    that no earlier record owns; cov_cnt and cov_rad must describe exactly those."""
    problems = []
    k = expected_count(fraction, len(ids))
    keys = [(r.site, r.seq) for r in records]
    if keys != [(site, s) for s in range(k)]:
        problems.append(f"site {site}: stream keys are not ({site}, 0..{k - 1}): "
                        f"{len(keys)} records, {len(set(keys))} distinct keys")
    coord_of = dict(zip(ids.tolist(), map(tuple, coords.tolist())))
    points = set(coord_of.values())
    owned = np.full(len(ids), -1, dtype=np.int64)
    for pos, rec in enumerate(records):
        if tuple(rec.coords) not in points or (rec.oid is not None
                                               and coord_of.get(rec.oid) != tuple(rec.coords)):
            problems.append(f"site {site} record {pos}: not an object of the site")
        d = distances(coords, rec.coords)
        new = (d <= eps) & (owned < 0)
        owned[new] = rec.seq
        replay = (int(new.sum()), float(d[new].max()) if new.any() else 0.0)
        if (rec.cov_cnt, rec.cov_rad) != replay:
            problems.append(f"site {site} record {pos}: aggregates "
                            f"{(rec.cov_cnt, rec.cov_rad)} != replay {replay}")
    want = {int(i): int(s) for i, s in zip(ids, owned) if s >= 0}
    return problems + _diff_dicts(f"site {site} owners", owners, want), want


def check_global(records: list[list[Rec]], merged_keys: list[tuple[int, int]] | None,
                 labels: dict[tuple[int, int], int], eps: float,
                 min_pts: int) -> tuple[list[str], dict[tuple[int, int], int]]:
    """Global labels against the weighted transcription over the interleaved
    order: every site's seq 0, then every site's seq 1, and so on."""
    problems = []
    merged = sorted((r for recs in records for r in recs), key=lambda r: (r.seq, r.site))
    order = [(r.site, r.seq) for r in merged]
    if len(set(order)) != len(order):
        problems.append(f"merged stream: {len(order) - len(set(order))} duplicate (site, seq) keys")
    if merged_keys is not None and list(merged_keys) != order:
        problems.append("merged stream: order differs from the (seq, site) interleave")
    if len(labels) != len(merged):
        problems.append(f"global labels: {len(labels)} labels for {len(merged)} records")
    if not merged:
        return problems, {}
    coords = np.array([r.coords for r in merged], dtype=np.float64)
    radii = eps + np.array([r.cov_rad for r in merged], dtype=np.float64)
    weights = np.array([r.cov_cnt for r in merged], dtype=np.int64)
    want = dict(zip(order, (int(c) for c in dbscan(coords, radii, weights, min_pts))))
    return problems + _diff_dicts("global labels", labels, want), want


def check_relabel(site_ids: list[np.ndarray], owners: list[dict[int, int]],
                  global_labels: dict[tuple[int, int], int],
                  distributed: dict[int, int]) -> tuple[list[str], dict[int, int]]:
    """Each object takes its owning record's global label; unowned objects are noise."""
    want = {}
    for site, ids in enumerate(site_ids):
        for oid in ids.tolist():
            seq = owners[site].get(oid)
            want[oid] = NOISE if seq is None else global_labels.get((site, seq), -1)
    return _diff_dicts("distributed labels", distributed, want), want


def contingency(a: dict[int, int], b: dict[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cluster-pair counts of two labelings over the same ids."""
    ids = sorted(a)
    pairs = np.array([(a[i], b[i]) for i in ids], dtype=np.int64).reshape(-1, 2)
    keys, counts = np.unique(pairs, axis=0, return_counts=True)
    return keys[:, 0], keys[:, 1], counts


def _pairs(counts) -> int:
    counts = np.asarray(counts, dtype=np.int64)
    return int((counts * (counts - 1) // 2).sum())


def _class_sizes(labels: dict[int, int]) -> np.ndarray:
    return np.unique(np.fromiter(labels.values(), dtype=np.int64), return_counts=True)[1]


def ari(a: dict[int, int], b: dict[int, int]) -> float:
    """Adjusted Rand index from the contingency table, noise as an ordinary class."""
    n = len(a)
    if n < 2:
        return 1.0
    sum_cells = _pairs(contingency(a, b)[2])
    sum_a, sum_b = _pairs(_class_sizes(a)), _pairs(_class_sizes(b))
    expected = sum_a * sum_b / (n * (n - 1) // 2)
    maximum = (sum_a + sum_b) / 2
    if maximum == expected:
        return 1.0
    return (sum_cells - expected) / (maximum - expected)


def matching_quality(a: dict[int, int], b: dict[int, int]) -> float:
    """Share of objects that land in a best one-to-one matched cluster pair or
    are noise on both sides."""
    n = len(a)
    if n == 0:
        return 1.0
    ka, kb, counts = contingency(a, b)
    noise_both = int(counts[(ka == NOISE) & (kb == NOISE)].sum())
    real = (ka != NOISE) & (kb != NOISE)
    if not real.any():
        return noise_both / n
    ua, ia = np.unique(ka[real], return_inverse=True)
    ub, ib = np.unique(kb[real], return_inverse=True)
    overlap = np.zeros((len(ua), len(ub)), dtype=np.int64)
    overlap[ia, ib] = counts[real]
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    return (int(overlap[rows, cols].sum()) + noise_both) / n


def check_scores(distributed: dict[int, int], reference: dict[int, int],
                 quality: float, ari_value: float) -> list[str]:
    problems = []
    if distributed.keys() != reference.keys():
        return ["scores: distributed and reference labelings cover different ids"]
    want_q = matching_quality(distributed, reference)
    want_a = ari(distributed, reference)
    if not math.isclose(quality, want_q, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"matching quality {quality!r} != {want_q!r}")
    if not math.isclose(ari_value, want_a, rel_tol=1e-12, abs_tol=1e-12):
        problems.append(f"adjusted Rand {ari_value!r} != {want_a!r}")
    return problems


def check_cell(cell: Cell, reference: dict[int, int], eps: float, min_pts: int) -> list[str]:
    """All checks on one cell, given the already-verified reference labels."""
    problems = []
    owners = []
    for site, (ids, coords) in enumerate(zip(cell.site_ids, cell.site_coords)):
        found, want = check_selection(site, ids, coords, cell.records[site], cell.owners[site],
                                      eps, cell.fraction)
        problems += found
        owners.append(want)
    found, global_want = check_global(cell.records, cell.merged_keys, cell.global_labels,
                                      eps, min_pts)
    problems += found
    found, dist_want = check_relabel(cell.site_ids, owners, global_want, cell.distributed)
    problems += found
    problems += check_scores(dist_want, reference, cell.quality, cell.ari)
    n_records = sum(expected_count(cell.fraction, len(ids)) for ids in cell.site_ids)
    if cell.bytes is not None and cell.bytes != n_records * BYTES_PER_RECORD:
        problems.append(f"bytes transmitted {cell.bytes} != "
                        f"{n_records} records x {BYTES_PER_RECORD}")
    return [f"budget {cell.fraction}, {len(cell.site_ids)} sites: {p}" for p in problems]


def check_partition(ids: np.ndarray, site_ids: list[np.ndarray]) -> list[str]:
    """Sites are disjoint, cover the dataset and differ in size by at most one."""
    parts = [set(s.tolist()) for s in site_ids]
    sizes = [len(s) for s in site_ids]
    union = set().union(*parts)
    if sum(len(p) for p in parts) != sum(sizes) or len(union) != sum(sizes):
        return [f"{len(site_ids)} sites: partition repeats objects"]
    if union != set(ids.tolist()) or max(sizes) - min(sizes) > 1:
        return [f"{len(site_ids)} sites: partition does not deal the dataset evenly"]
    return []


def check_same(what: str, a: Cell, b: Cell) -> list[str]:
    """Two paths that ran the same config must agree on every output."""
    problems = []
    strip = [[r._replace(oid=None) for r in recs] for recs in a.records]
    if strip != [[r._replace(oid=None) for r in recs] for recs in b.records]:
        problems.append(f"{what}: representative streams differ")
    if a.owners != b.owners:
        problems.append(f"{what}: ownership maps differ")
    problems += _diff_dicts(f"{what}: global labels", a.global_labels, b.global_labels)
    problems += _diff_dicts(f"{what}: distributed labels", a.distributed, b.distributed)
    if (a.quality, a.ari) != (b.quality, b.ari):
        problems.append(f"{what}: reports differ: {(a.quality, a.ari)} vs {(b.quality, b.ari)}")
    if None not in (a.bytes, b.bytes) and a.bytes != b.bytes:
        problems.append(f"{what}: transmitted bytes differ: {a.bytes} vs {b.bytes}")
    return problems
