"""Global clustering of representative streams, plus a centralized reference.

The global algorithm is a weighted DBSCAN variant: a representative r reaches
the closed ball of the enlarged radius epsilon + cov_rad(r), and the core test
sums the cov_cnt weights of the representatives reached instead of counting
them. With cov_rad = 0 and cov_cnt = 1 everywhere it degenerates term by term
to the textbook algorithm that `reference_dbscan` computes as the centralized
baseline. The two are independent algorithms over the same closed balls, each
read from `BallIndex.pair_blocks`: the global clustering is a density expansion
(`_expand`) over the directed reach graph at per-row radii, `BallIndex.graph`'s whole
rows plus each witnessed zero-count record's pairs with the positive-count records (see
`global_labels`); the reference is the core-graph components on a grid of epsilon/sqrt(d) cells.

Cluster ids: -1 marks UNCLASSIFIED (never survives a completed run), 0 is
NOISE, and real clusters are numbered 1..K in discovery order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix, csgraph
from scipy.spatial import cKDTree

from .errors import InputError
from .geometry import GRAPH_BLOCK_PAIRS, BallIndex, Dataset, check_count, check_epsilon
from .representatives import RepresentativeRecord
from .tables import read_int_table, write_table

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
        check_count(self.min_pts, "min_pts")


@dataclass
class Labeling:
    """Cluster ids keyed by (site, seq) for `global_dbscan`, by object id for `reference_dbscan`."""

    labels: dict[tuple[int, int] | int, int]

    @property
    def n_clusters(self) -> int:
        return len({v for v in self.labels.values() if v >= 1})


def global_dbscan(reps: Sequence[RepresentativeRecord], params: GlobalParams) -> Labeling:
    """`global_labels` keyed by each representative's (site, seq)."""
    records = list(reps)
    return Labeling(dict(zip((rec.key for rec in records), global_labels(records, params).tolist())))


def global_labels(reps: Sequence[RepresentativeRecord], params: GlobalParams) -> np.ndarray:
    """Cluster representatives in input order with per-representative enlarged
    radii and cov_cnt-weighted core tests; one int64 label per representative, in input order.

    A start representative whose weighted neighborhood stays below min_pts is
    labeled NOISE; it may still be absorbed later as a border member of a
    cluster. Expansion enqueues UNCLASSIFIED neighbors of core representatives
    only. Deterministic: same input sequence and params, same labeling; a repeated
    (site, seq) key, which cannot carry two labels, raises InputError.

    `_expand` runs over the reach graph, where row r lists every q with
    D(r, q) <= R(r): D is the `BallIndex.distances` float and R(r) = eps + cov_rad(r),
    rounded. One kind of row is cut short. A positive-count row s is a *witness* of a
    zero-count row z when z reaches s and D(s, z) <= cov_rad(s) - cov_rad(z) - slack(s).
    A zero-count row with a witness keeps only its positive-count columns, which hold
    the witness; every other row stays whole. The labels are those of the whole graph:
    - Core flags do not change: a core test sums weights, and the dropped columns weigh 0.
    - s reaches every row that z reaches (see the rounding below), z itself included.
      Weights are not negative, so s is core when z is.
    - Clusters agree one by one. `_expand` finishes a cluster before it takes the next
      start, so say both runs agree up to cluster C, started at p. The rows labeled C
      are those free (UNCLASSIFIED or NOISE) when C starts that a path from p reaches
      through free core rows. Each path of the cut graph is one of the whole graph. A
      whole-graph path that takes a dropped edge z -> q can go z -> s -> q instead: z
      keeps s, and s's row is whole. s is core because z is, and s is free: a core row
      in an earlier cluster was expanded there, and s's expansion would have taken z
      into that cluster too. So both runs label the same rows C, and the same rows NOISE.
    - The witness must have a positive count, so that its own row is whole. Two
      zero-count rows that witnessed each other could both drop the rows they share.

    Rounding. Let u = 2**-53 and d the dimension. `distances` rounds each difference,
    square and partial sum, and the root, once each; so a pair at exact distance x gets
    a D with |D - x| <= k x + t, where k = (d + 4) u, and t = sqrt(d) 2**-537 bounds
    squares that underflow (for d below 10**14). R and each subtraction of the witness
    test round once more. With D(z, q) <= R(z), the triangle inequality
    x(s, q) <= x(s, z) + x(z, q) and these bounds give D(s, q) <= R(s) whenever the
    slack is at least (3d + 18) u (eps + cov_rad(s)) + 4t. The slack taken,
    (d + 8) 2**-50 R(s) + 1e-150, stays above that once rounded. A bare triangle step
    is not enough: when z is the farthest object s covered, D(s, z) = cov_rad(s), and
    q lies at eps from z on the same line, D(s, q) can exceed R(s) by an ulp.
    """
    records = list(reps)
    if not records:
        return np.zeros(0, np.int64)
    dims = {len(r.point.coords) for r in records}
    if len(dims) != 1:
        raise InputError(f"representatives have mixed dimensions {sorted(dims)}")
    counts = [r.cov_cnt for r in records]
    if sum(counts) >= 2**63:  # so no int64 weight sum can wrap
        raise InputError(f"cov_cnt must total below 2**63, got total {sum(counts)}")
    if len({r.key for r in records}) < len(records):  # one key would carry two records' labels
        seen = set()
        repeated = next(r.key for r in records if r.key in seen or seen.add(r.key))
        raise InputError(f"representative (site, seq) = {repeated} appears twice")
    weight = np.array(counts, dtype=np.int64)
    cov_rad = np.array([r.cov_rad for r in records])
    index = BallIndex(np.array([r.point.coords for r in records], dtype=np.float64))
    indptr, cols = _reach_graph(index, params.epsilon + cov_rad, cov_rad, weight)
    return np.array(_expand(indptr, cols, weight, params.min_pts), np.int64)


def _reach_graph(index: BallIndex, radius: np.ndarray, cov_rad: np.ndarray,
                 weight: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR arrays (indptr, int32 cols) of `global_dbscan`'s reach graph: each row's closed
    ball at its `radius`, in ascending columns, where a zero-count row with a witness keeps
    only its positive-count columns."""
    n = len(weight)
    # Zero-count rows against positive-count columns: this finds the witnesses.
    slack = (index.dim + 8) * 2.0**-50 * radius + 1e-150
    witnessed, kept = np.zeros(n, bool), [(np.zeros(0, np.intp),) * 2]
    for _, _, rows, cols, dist in index.pair_blocks(radius, np.flatnonzero(weight == 0),
                                                   cols=np.flatnonzero(weight > 0)):
        witnessed[rows[dist <= cov_rad[cols] - cov_rad[rows] - slack[cols]]] = True
        kept.append((rows[witnessed[rows]], cols[witnessed[rows]]))
    kept_rows, kept_cols = map(np.concatenate, zip(*kept))
    indptr, cols, _ = index.graph(radius, np.flatnonzero(~witnessed))
    if len(kept_rows):  # a cut row is empty in `graph`, so its kept columns go in at its start
        cols = np.insert(cols, indptr[kept_rows], kept_cols)
        indptr[1:] += np.bincount(kept_rows, minlength=n).cumsum()
    return indptr, cols


def reference_dbscan(ds: Dataset, params: GlobalParams) -> Labeling:
    """`reference_labels` keyed by object id."""
    return Labeling(dict(zip(ds.ids.tolist(), reference_labels(ds, params).tolist())))


def reference_labels(ds: Dataset, params: GlobalParams) -> np.ndarray:
    """Textbook density-based clustering of the full dataset (closed epsilon-balls;
    a point is core when its ball, itself included, holds min_pts points), in
    the closed form of the loop that visits points in dataset order (Gan & Tao,
    SIGMOD 2015): the components of the core-core epsilon graph, numbered by
    their lowest core row; a border point joins the lowest-numbered cluster
    among its core neighbors; the rest is noise. The centralized baseline: one
    int64 label per row.

    On a grid of cells under epsilon/sqrt(d) wide, a cell of min_pts rows is all core and joined:
    its lowest row (witness) lists pairs, the rest only when no witness joins it to a near dense cell.
    """
    n, min_pts, index = len(ds), params.min_pts, BallIndex(ds.coords)
    name, size, centre = _cells(ds.coords, params.epsilon)
    dense = size >= min_pts
    listed = np.flatnonzero(~dense | (name == np.arange(n)))  # sparse rows and dense cells' witnesses
    core = dense.copy()
    comp = np.where(dense, name, np.arange(n))  # a core's component, named by its lowest core row so far
    loose = [(np.empty(0, np.intp),) * 2]  # the pairs of non-core rows
    for start, stop, rows, cols, _ in index.pair_blocks(params.epsilon, listed):
        core[start:stop] |= np.bincount(rows - start, minlength=stop - start) >= min_pts  # dense rows stay core
        loose.append((rows[~core[rows]], cols[~core[rows]]))
        join = ((cols < stop) | dense[cols]) & core[rows] & core[cols]  # both core flags known
        comp = _merge(comp, comp[rows[join]], comp[cols[join]])
    comp = _join_dense_cells(index, comp, core, name, listed[dense[listed]], centre, params.epsilon)
    del index, name, size, centre  # not held while the labels are built
    labels = np.zeros(n, dtype=np.int64)
    labels[core] = np.unique(comp[core], return_inverse=True)[1] + 1
    rows, cols = map(np.concatenate, zip(*loose))
    rows, cols = rows[core[cols]], cols[core[cols]]
    labels[rows] = n  # above every cluster id, lowered to the least one reached
    np.minimum.at(labels, rows, labels[cols])
    return labels


def _cells(coords: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows binned on a grid of side just under epsilon/sqrt(d), so that any two rows of a
    cell are within epsilon by `BallIndex.distances`: per row, its cell's lowest row, size
    and centre. Past 2**24 cells on an axis, rounding in the binning could exceed that
    margin; then each row is a cell of its own, of size 0 so that none is dense."""
    side = epsilon / np.sqrt(coords.shape[1]) * (1 - 1e-6)
    offset = (coords - coords.min(axis=0, initial=np.inf)) / side
    if not (offset < 2**24).all():
        return np.arange(len(coords)), np.zeros(len(coords), np.intp), coords
    grid = offset.astype(np.int64)  # the floor, as offsets are not negative
    order = np.lexsort(grid.T[::-1])  # cells in lexicographic order, each led by its lowest row
    new = np.diff(grid[order], axis=0, prepend=-1).any(axis=1)
    cell = np.empty_like(order)
    cell[order] = np.cumsum(new) - 1
    first = np.flatnonzero(new)
    return order[first][cell], np.diff(first, append=len(order))[cell], (grid + 0.5) * side


def _join_dense_cells(index: BallIndex, comp: np.ndarray, core: np.ndarray, name: np.ndarray,
                      witness: np.ndarray, centre: np.ndarray, epsilon: float) -> np.ndarray:
    """`comp` merged where a core pair joins two dense cells no witness joined: their centres
    are within epsilon plus a diagonal (under epsilon), and all their rows' pairs are listed."""
    near = witness[cKDTree(centre[witness]).query_pairs(2 * epsilon, output_type="ndarray")]
    for _, _, rows, cols, _ in index.pair_blocks(epsilon, np.flatnonzero(
            np.isin(name, near[comp[near[:, 0]] != comp[near[:, 1]]]))):
        comp = _merge(comp, comp[rows[core[cols]]], comp[cols[core[cols]]])
    return comp


def _merge(comp: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`comp` with the components that edges a[k]-b[k] join named by their lowest name."""
    a, b = a[a != b], b[a != b]  # a pair inside one component changes nothing
    if not len(a):
        return comp
    names, ends = np.unique(np.concatenate((a, b)), return_inverse=True)
    edges = coo_matrix((np.ones(len(a)), (ends[:len(a)], ends[len(a):])), shape=(len(names),) * 2)
    part = csgraph.connected_components(edges, directed=False)[1]
    rename = np.arange(len(comp))
    rename[names] = names[np.unique(part, return_index=True)[1]][part]  # names ascend
    return rename[comp]


def _expand(indptr: np.ndarray, cols: np.ndarray, weight: np.ndarray, min_pts: int) -> list[int]:
    """Density expansion over the rows of a directed CSR graph, visited in row
    order; runs `global_dbscan`.

    Row i lists the rows within reach of i (itself included), and i is core
    when the int64 sum of `weight` over that list reaches min_pts; each row is
    read at most once, as a start or off the frontier. Returns a label per
    row: NOISE or a cluster id 1..K in discovery order.
    """
    core = np.empty(len(indptr) - 1, dtype=bool)
    cuts = [0, *(np.flatnonzero(np.diff(indptr[:-1] // GRAPH_BLOCK_PAIRS)) + 1).tolist(), len(core)]
    for a, b in zip(cuts, cuts[1:]):  # rows a..b-1, about GRAPH_BLOCK_PAIRS columns at a time
        # A row's weight sum is a difference of running int64 sums: exact, even if they wrap.
        ends = np.concatenate(([0], np.cumsum(weight[cols[indptr[a]:indptr[b]]])))
        core[a:b] = ends[indptr[a + 1:b + 1] - indptr[a]] - ends[indptr[a:b] - indptr[a]] >= min_pts
    indptr, core = indptr.tolist(), core.tolist()
    labels = [UNCLASSIFIED] * len(core)
    next_cluster = 1
    for start in range(len(labels)):
        if labels[start] != UNCLASSIFIED:
            continue
        # A start is NOISE until its own row, which lists it, proves it core.
        labels[start] = NOISE
        frontier = deque([start])
        while frontier:
            row = frontier.popleft()
            if core[row]:
                for q in cols[indptr[row]:indptr[row + 1]].tolist():
                    if labels[q] == UNCLASSIFIED:
                        frontier.append(q)
                        labels[q] = next_cluster
                    elif labels[q] == NOISE:
                        labels[q] = next_cluster
        if labels[start] != NOISE:
            next_cluster += 1
    return labels


def save_global_labels_csv(labeling: Labeling, path: str | Path) -> None:
    write_table(path, GLOBAL_LABELS_HEADER,
                ((site, seq, cid) for (site, seq), cid in sorted(labeling.labels.items())))


def load_global_labels_csv(path: str | Path) -> Labeling:
    return Labeling(read_int_table(path, GLOBAL_LABELS_HEADER, n_key=2))


def save_reference_labels_csv(labeling: Labeling, path: str | Path) -> None:
    write_table(path, REFERENCE_LABELS_HEADER, sorted(labeling.labels.items()))


def load_reference_labels_csv(path: str | Path) -> Labeling:
    return Labeling(read_int_table(path, REFERENCE_LABELS_HEADER))
