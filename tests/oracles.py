"""Independent from-definition implementations used as test oracles.

Everything here is deliberately naive: linear scans, O(n^2) recomputation,
list-based frontier handling. None of it touches the package's spatial index
or incremental-selection machinery, so agreement is meaningful.

Points are passed as (id, coords) pairs. Score sums accumulate in ascending
id order, the same convention the package uses, so exact ties break
identically on both sides.
"""

from __future__ import annotations

import math

import numpy as np

from distclust import InputError


def dist(a, b) -> float:
    s = 0.0
    for x, y in zip(a, b):
        d = x - y
        s += d * d
    return math.sqrt(s)


def brute_range_ids(points, center_coords, radius) -> set[int]:
    """Linear-scan closed-ball query."""
    return {pid for pid, c in points if dist(c, center_coords) <= radius}


def place_centers_one_at_a_time(rng, spec, limit=10_000):
    """Blob centres drawn one at a time, each kept when it is `min_center_separation`
    from every centre kept before it; gives up on draw `limit` + 1."""
    lows = np.array([lo for lo, _ in spec.bounds])
    highs = np.array([hi for _, hi in spec.bounds])
    margin = np.minimum(3.0 * spec.sigma_range[1], (highs - lows) / 4.0)
    centers: list[np.ndarray] = []
    attempts = 0
    while len(centers) < spec.n_clusters:
        c = rng.uniform(lows + margin, highs - margin)
        if all(np.linalg.norm(c - other) >= spec.min_center_separation for other in centers):
            centers.append(c)
        attempts += 1
        if attempts > limit:
            raise InputError(
                f"cannot place {spec.n_clusters} centers {spec.min_center_separation} apart "
                f"within {spec.bounds}"
            )
    return np.array(centers) if centers else np.empty((0, len(spec.bounds)))


def stat_rep_q_brute(points, oid, eps) -> float:
    coords = dict(points)
    oc = coords[oid]
    total = 0.0
    for qid in sorted(coords):
        d = dist(coords[qid], oc)
        if d <= eps:
            total += eps - d
    return total


def covered_by(points, eps, chosen_ids) -> set[int]:
    """Union of the closed eps-balls of the chosen representatives."""
    coords = dict(points)
    covered: set[int] = set()
    for rid in chosen_ids:
        covered |= brute_range_ids(points, coords[rid], eps)
    return covered


def dyn_rep_q_brute(points, oid, eps, chosen_ids) -> float:
    coords = dict(points)
    oc = coords[oid]
    covered = covered_by(points, eps, chosen_ids)
    total = 0.0
    for qid in sorted(coords):
        d = dist(coords[qid], oc)
        if d <= eps and qid not in covered:
            total += eps - d
    return total


def def3_scores(points, eps, chosen_ids, candidates) -> dict[int, float]:
    """From-scratch dynamic quality of every candidate given the chosen set."""
    return {oid: dyn_rep_q_brute(points, oid, eps, chosen_ids) for oid in candidates}


def neighbor_table(points, eps):
    """Per-id list of (neighbor id, distance) within the closed eps-ball,
    ascending by id. Pure linear scans."""
    table = {}
    for pid, c in points:
        row = []
        for qid, qc in sorted(points):
            d = dist(qc, c)
            if d <= eps:
                row.append((qid, d))
        table[pid] = row
    return table


def naive_select(points, eps, size_bound=None, theta=None):
    """Literal greedy selection: every round recomputes every candidate's
    score from the definition, then takes the maximum (ties to the lower id).

    Returns (records, owner) where records are (id, cov_rad, cov_cnt) in
    selection order and owner maps covered ids to the seq that covered them.
    """
    ids = sorted(pid for pid, _ in points)
    nbrs = neighbor_table(points, eps)
    covered: set[int] = set()
    owner: dict[int, int] = {}
    records: list[tuple[int, float, int]] = []
    candidates = set(ids)
    while True:
        if size_bound is not None and len(records) >= size_bound:
            break
        if not candidates:
            break
        scores = {}
        for o in candidates:
            s = 0.0
            for q, d in nbrs[o]:
                if q not in covered:
                    s += eps - d
            scores[o] = s
        best = min(candidates, key=lambda o: (-scores[o], o))
        if theta is not None and scores[best] <= theta:
            break
        newly = [(q, d) for q, d in nbrs[best] if q not in covered]
        cov_rad = max((d for _, d in newly), default=0.0)
        seq = len(records)
        for q, _ in newly:
            covered.add(q)
            owner[q] = seq
        records.append((best, cov_rad, len(newly)))
        candidates.discard(best)
    return records, owner


class NaiveGreedy:
    """`naive_select` one pick at a time, so that one selection can be stopped
    and resumed under another bound; a pick takes the next seq."""

    def __init__(self, points, eps):
        self.eps = eps
        self.nbrs = neighbor_table(points, eps)
        self.candidates = {pid for pid, _ in points}
        self.covered: set[int] = set()
        self.owner: dict[int, int] = {}
        self.seq = 0

    def commit(self, oid):
        """Covers oid's uncovered neighbours; returns (cov_rad, cov_cnt)."""
        newly = [(q, d) for q, d in self.nbrs[oid] if q not in self.covered]
        for q, _ in newly:
            self.covered.add(q)
            self.owner[q] = self.seq
        self.seq += 1
        return max((d for _, d in newly), default=0.0), len(newly)

    def select(self, size_bound=None, theta=None):
        """Picks until `size_bound` picks exist in all, no candidate is left or
        the best score is <= theta; returns (id, cov_rad, cov_cnt, seq) per pick."""
        records = []
        while self.candidates and (size_bound is None or self.seq < size_bound):
            scores = def3_scores_fast(self.nbrs, self.eps, self.covered, self.candidates)
            best = min(self.candidates, key=lambda o: (-scores[o], o))
            if theta is not None and scores[best] <= theta:
                break
            seq = self.seq
            records.append((best, *self.commit(best), seq))
            self.candidates.discard(best)
        return records


def def3_scores_fast(nbrs, eps, covered, candidates):
    """From-definition scores over a precomputed neighbor table."""
    scores = {}
    for o in candidates:
        s = 0.0
        for q, d in nbrs[o]:
            if q not in covered:
                s += eps - d
        scores[o] = s
    return scores


def literal_dbscan(points, eps, minpts) -> dict[int, int]:
    """Transcribed textbook density clustering over raw points.

    Visit order is the input list order; neighbor lists are ascending by id;
    the frontier is a plain list processed front to back. Labels: 0 noise,
    clusters numbered from 1.
    """
    coords = dict(points)
    order = [pid for pid, _ in points]
    ids_sorted = sorted(coords)

    def nbrs(pid):
        return [q for q in ids_sorted if dist(coords[q], coords[pid]) <= eps]

    labels = {pid: -1 for pid in order}
    next_cluster = 1
    for start in order:
        if labels[start] != -1:
            continue
        seeds = nbrs(start)
        if len(seeds) < minpts:
            labels[start] = 0
            continue
        for s in seeds:
            if labels[s] in (-1, 0):
                labels[s] = next_cluster
        seeds = [s for s in seeds if s != start]
        while seeds:
            cur = seeds[0]
            nb = nbrs(cur)
            if len(nb) >= minpts:
                for q in nb:
                    if labels[q] == -1:
                        seeds.append(q)
                        labels[q] = next_cluster
                    elif labels[q] == 0:
                        labels[q] = next_cluster
            seeds.pop(0)
        next_cluster += 1
    return labels


def literal_weighted_dbscan(reps, eps, minpts) -> list[int]:
    """Transcribed weighted variant over (coords, cov_rad, cov_cnt) triples.

    Range queries use the enlarged radius eps + cov_rad of the querying
    representative; the core test sums cov_cnt over everything found.
    Returns labels by input position.
    """
    m = len(reps)
    coords = [r[0] for r in reps]
    cov_rad = [r[1] for r in reps]
    cov_cnt = [r[2] for r in reps]

    def nbrs(i):
        radius = eps + cov_rad[i]
        return [j for j in range(m) if dist(coords[j], coords[i]) <= radius]

    labels = [-1] * m
    next_cluster = 1
    for start in range(m):
        if labels[start] != -1:
            continue
        seeds = nbrs(start)
        if sum(cov_cnt[s] for s in seeds) < minpts:
            labels[start] = 0
            continue
        for s in seeds:
            if labels[s] in (-1, 0):
                labels[s] = next_cluster
        seeds = [s for s in seeds if s != start]
        while seeds:
            cur = seeds[0]
            nb = nbrs(cur)
            if sum(cov_cnt[j] for j in nb) >= minpts:
                for p in nb:
                    if labels[p] == -1:
                        seeds.append(p)
                        labels[p] = next_cluster
                    elif labels[p] == 0:
                        labels[p] = next_cluster
            seeds.pop(0)
        next_cluster += 1
    return labels


def pair_counting_ari(a: dict[int, int], b: dict[int, int]) -> float:
    """Adjusted Rand index straight from the pairwise agreement counts."""
    ids = sorted(a)
    n11 = n10 = n01 = n00 = 0
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            same_a = a[ids[i]] == a[ids[j]]
            same_b = b[ids[i]] == b[ids[j]]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    if denom == 0:
        return 1.0
    return 2.0 * (n11 * n00 - n10 * n01) / denom


def brute_best_matching(dist_labels, ref_labels) -> float:
    """Matching quality by trying every one-to-one cluster matching.

    Exponential; only usable when either side has a handful of clusters.
    """
    import itertools

    n = len(dist_labels)
    if n == 0:
        return 1.0
    d_ids = sorted({v for v in dist_labels.values() if v != 0})
    r_ids = sorted({v for v in ref_labels.values() if v != 0})
    noise_both = sum(1 for i in dist_labels if dist_labels[i] == 0 and ref_labels[i] == 0)
    if not d_ids or not r_ids:
        return noise_both / n
    overlap = {(dc, rc): 0 for dc in d_ids for rc in r_ids}
    for i in dist_labels:
        key = (dist_labels[i], ref_labels[i])
        if key in overlap:
            overlap[key] += 1
    best = 0
    small, large = (d_ids, r_ids) if len(d_ids) <= len(r_ids) else (r_ids, d_ids)
    flipped = len(d_ids) > len(r_ids)
    for assignment in itertools.permutations(large, len(small)):
        total = 0
        for s, l in zip(small, assignment):
            total += overlap[(l, s)] if flipped else overlap[(s, l)]
        best = max(best, total)
    return (best + noise_both) / n
