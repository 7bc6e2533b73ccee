"""Quality-driven greedy selection of local cluster representatives.

Each object gets a static representation quality: the sum of (epsilon - d)
margins over its closed epsilon-neighborhood, so densely surrounded, centrally
located objects score highest. Selection repeatedly takes the object with the
best dynamic quality (the same sum restricted to objects not yet covered by a
chosen representative) and emits it with two aggregates: the distance to the
farthest newly covered object (cov_rad) and the count of newly covered objects
(cov_cnt). The stream is best-first and can be cut off at any point. A site's
neighborhoods all come from one closed-ball neighbour graph, built once; its
build sums the static qualities too, adding each row's terms as a re-score does.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import InputError
from .geometry import BallIndex, Dataset, Point, check_count, check_epsilon, real_float
from .tables import read_text

RESCORE_BATCH = 64  # most rows `SelectionState` re-scores in one pass


@dataclass(frozen=True)
class RepresentativeRecord:
    """One selected representative plus its coverage aggregates, checked wherever it is built: `site`,
    `seq` and `cov_cnt` are integers >= 0, stored as ints, and `cov_rad` a finite real >= 0, as a float."""

    point: Point
    cov_rad: float
    cov_cnt: int
    site: int
    seq: int

    def __post_init__(self):
        for field in ("site", "seq", "cov_cnt"):
            object.__setattr__(self, field, check_count(getattr(self, field), field, 0))
        cov_rad = real_float(self.cov_rad)
        if not 0 <= cov_rad < math.inf:
            raise InputError(f"cov_rad must be a non-negative and finite number, got {self.cov_rad!r}")
        object.__setattr__(self, "cov_rad", cov_rad)

    @property
    def key(self) -> tuple[int, int]:
        return (self.site, self.seq)


@dataclass(frozen=True)
class StopCriterion:
    """Either a size bound (absolute count or fraction of the site) or an
    error bound: stop once the best remaining dynamic quality drops to theta."""

    max_count: int | None = None
    max_fraction: float | None = None
    theta: float | None = None

    def __post_init__(self):
        active = sum(v is not None for v in (self.max_count, self.max_fraction, self.theta))
        if active != 1:
            raise InputError("exactly one stop-criterion variant must be set")
        if self.max_count is not None:
            check_count(self.max_count, "size bound")
        frac, theta = self.max_fraction, self.theta
        if frac is not None and not 0.0 < real_float(frac) <= 1.0:
            raise InputError(f"fraction bound must be a number in (0, 1], got {frac!r}")
        if theta is not None and not 0 <= real_float(theta) < math.inf:
            raise InputError(f"theta must be a finite number >= 0, got {theta!r}")

    @classmethod
    def size(cls, count: int) -> "StopCriterion":
        return cls(max_count=count)

    @classmethod
    def fraction(cls, frac: float) -> "StopCriterion":
        return cls(max_fraction=frac)

    @classmethod
    def error_bound(cls, theta: float = 0.0) -> "StopCriterion":
        return cls(theta=theta)

    def resolve_count(self, n: int) -> int | None:
        """Concrete record limit for a site of n objects; None for error bounds."""
        if self.max_count is not None:
            return self.max_count
        if self.max_fraction is not None:
            return max(1, int(math.floor(self.max_fraction * n + 1e-9)))
        return None


class SelectionState:
    """Mutable state of one site's greedy selection, its objects in id order (`ids`) whatever
    the dataset's row order. Their closed epsilon-balls are built once, as `BallIndex.graph` rows
    of int32 positions; a score reads a row and its covered flags and recomputes the distances.

    `_score` holds every candidate's exact dynamic quality, positions in id order, and -inf for
    an object `run` has already picked; the first scores, the static qualities, are the graph's
    margin sums. A pick is the first maximum of `_score`, so ties break toward the lower id. Each
    commit re-scores the rows whose ball lost an uncovered object: the graph is symmetric, so these
    are the newly covered objects' own rows. Already covered objects stay candidates; once the
    best score is 0.0 all objects are covered, and the rest go out in id order, unscored.
    `rows_rescored` counts the rows scored, the n first scores included, and `rescore_passes`
    the commits' passes of at most `RESCORE_BATCH` rows.
    """

    def __init__(self, dataset: Dataset, epsilon: float, site: int = 0):
        self.epsilon = check_epsilon(epsilon)
        self.site = check_count(site, "site", 0)
        order = np.argsort(dataset.ids)  # scores sum in id order, and ties go to the lower id
        self.ids, self.index = dataset.ids[order], BallIndex(dataset.coords[order])
        self._indptr, self._cols, self._score = self.index.graph(self.epsilon)
        self._sizes = np.diff(self._indptr)
        self._covered = np.zeros(len(dataset), dtype=bool)
        self.rows_rescored, self.rescore_passes = len(dataset), 0
        self.chosen: list[RepresentativeRecord] = []
        self.coverage_owner: dict[int, int] = {}

    def _entries(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Every entry of the rows at `positions`, row after row: its index into `positions`, and its column.
        starts, sizes = self._indptr[positions], self._sizes[positions]
        row = np.repeat(np.arange(len(positions)), sizes)
        shift = starts - (sizes.cumsum() - sizes)  # a row's start in `_cols` minus its start here
        return row, self._cols[np.arange(len(row)) + shift[row]]

    def _scores(self, positions: np.ndarray) -> list[float]:
        # The dynamic quality of each row at `positions`, in one pass. Weighted bincount adds
        # each row's uncovered terms one by one in input order, ascending id, so exact score
        # ties (and the greedy tie-breaks) are reproducible.
        row, cols = self._entries(positions)
        keep = np.flatnonzero(~self._covered[cols])  # most entries are covered; indices gather less
        row, cols = row[keep], cols[keep]
        centers = self.index.coords.take(positions[row], axis=0)  # ~10x faster than coords[...]
        terms = self.epsilon - self.index.distances(cols, centers)
        return np.bincount(row, weights=terms, minlength=len(positions)).tolist()

    def _rescore(self, positions: np.ndarray) -> None:
        for start in range(0, len(positions), RESCORE_BATCH):
            batch = positions[start:start + RESCORE_BATCH]
            self._score[batch] = self._scores(batch)
            self.rows_rescored += len(batch)
            self.rescore_passes += 1

    def _commit(self, pos: int, seq: int) -> tuple[float, int]:
        # Covers the uncovered objects of the row at `pos` for representative `seq` and re-scores
        # the candidate rows holding them (by symmetry, their own rows). `run` commits only a row
        # whose score is above 0.0, so the row holds at least one uncovered object.
        cols = self._cols[self._indptr[pos]:self._indptr[pos + 1]]
        cols = cols[~self._covered[cols]]
        self._covered[cols] = True
        touched = np.zeros(len(self._score), dtype=bool)
        touched[self._entries(cols)[1]] = True
        self._rescore(np.flatnonzero(touched & (self._score > -math.inf)))
        self.coverage_owner.update(dict.fromkeys(self.ids[cols].tolist(), seq))
        return float(self.index.distances(cols, self.index.coords[pos]).max()), len(cols)

    def candidate_scores(self) -> dict[int, float]:
        """Current dynamic quality of every candidate, by ascending id."""
        live = np.flatnonzero(self._score > -math.inf)
        return dict(zip(self.ids[live].tolist(), self._score[live].tolist()))

    def run(self, stop: StopCriterion) -> Iterator[RepresentativeRecord]:
        """Greedy selection; yields records best-first, one per round.

        The generator computes a record only when the consumer asks for it, so
        closing it early cancels the remaining work.
        """
        n = len(self._score)
        limit = min(n, stop.resolve_count(n) or n)  # a count is at least 1; None means no bound
        while len(self.chosen) < limit:
            pos = int(self._score.argmax())
            if stop.theta is not None and self._score[pos] <= stop.theta:
                return  # not emitted; it stays a candidate
            if self._score[pos] == 0.0:
                # Every object is covered (an uncovered one's own row scores epsilon or more), so
                # every live score is 0.0 and the first maximum is the lowest live position.
                for pos in np.flatnonzero(self._score == 0.0)[:limit - len(self.chosen)].tolist():
                    self._score[pos] = -math.inf
                    yield self._emit(pos, 0.0, 0)
                return
            self._score[pos] = -math.inf
            yield self._emit(pos, *self._commit(pos, len(self.chosen)))

    def _emit(self, pos: int, cov_rad: float, cov_cnt: int) -> RepresentativeRecord:
        rep = Point(int(self.ids[pos]), self.index.coords[pos].tolist())
        self.chosen.append(RepresentativeRecord(rep, cov_rad, cov_cnt, self.site, len(self.chosen)))
        return self.chosen[-1]


def write_records_jsonl(records: Iterable[RepresentativeRecord], path: str | Path) -> int:
    """Write one JSON object per line, in stream order; returns the record count."""
    n = 0
    with open(path, "w") as f:
        for n, rec in enumerate(records, start=1):
            f.write(json.dumps({"site": rec.site, "seq": rec.seq, "coords": list(rec.point.coords),
                                "cov_rad": rec.cov_rad, "cov_cnt": rec.cov_cnt}) + "\n")
    return n


def read_records_jsonl(path: str | Path) -> list[RepresentativeRecord]:
    """Parse a representative stream file; the wire format carries no object ids, so each point
    gets its seq as a synthetic id. Errors name path:line."""
    records = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):  # as iterating `open(path)` splits
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            records.append(RepresentativeRecord(Point(check_count(obj["seq"], "seq", 0), obj["coords"]),
                                                obj["cov_rad"], obj["cov_cnt"], obj["site"], obj["seq"]))
        except (KeyError, TypeError, ValueError) as e:
            raise InputError(f"{path}:{lineno}: bad representative record: {e}") from None
    return records
