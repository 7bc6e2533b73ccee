"""End-to-end orchestration: partition, per-site selection, merge, global
clustering, relabeling, evaluation, and experiment sweeps.

Site selections are independent; they can run sequentially or on worker
processes, with bit-identical results either way (the workers import the
caller's main module, which therefore needs the `__main__` guard). The harness
always evaluates against a single centralized clustering of the unpartitioned
dataset with the same parameters.
"""

from __future__ import annotations

import math
import multiprocessing.forkserver
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .clustering import NOISE, GlobalParams, Labeling, global_labels, reference_labels
from .datagen import DatasetSpec, generate
from .errors import InputError
from .evaluation import QualityReport, TransmissionCost, label_arrays, score, transmission_cost
from .geometry import Dataset, check_count, real_float
from .relabel import LocalLabeling, owner_labels
from .representatives import RepresentativeRecord, SelectionState, StopCriterion
from .tables import write_table

Budget = float | int
MERGE_ORDERS = ("interleave", "concat")


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetSpec
    n_sites: int
    epsilon: float
    min_pts: int
    budgets: tuple[Budget, ...] = (0.05,)
    seed: int = 0
    merge_order: str = MERGE_ORDERS[0]
    concurrent: bool = False

    def __post_init__(self):
        check_count(self.n_sites, "n_sites")
        check_count(self.seed, "seed", 0)
        self.params  # checks epsilon and min_pts
        if not isinstance(self.budgets, (str, bytes)):
            with suppress(TypeError):  # not iterable, a 0-d array included
                object.__setattr__(self, "budgets", tuple(self.budgets))
        if not isinstance(self.budgets, tuple):
            raise InputError(f"budgets must be a non-string iterable, got {self.budgets!r}")
        if not self.budgets:
            raise InputError("at least one representative budget is required")
        for b in self.budgets:
            budget_to_stop(b)
        if self.merge_order not in MERGE_ORDERS:
            raise InputError(f"unknown merge order {self.merge_order!r}")

    @property
    def params(self) -> GlobalParams:
        return GlobalParams(self.epsilon, self.min_pts)


def budget_to_stop(budget: Budget) -> StopCriterion:
    """An integer >= 1 is an absolute count, and any other real number in (0, 1] a per-site
    fraction; numpy's numbers count too."""
    if isinstance(budget, numbers.Integral):
        return StopCriterion.size(budget)  # which rejects bools
    if not math.isnan(real_float(budget)):
        return StopCriterion.fraction(budget)
    raise InputError(f"bad budget {budget!r}")


def partition(ds: Dataset, n_sites: int, seed: int) -> list[Dataset]:
    """Shuffle by seed, then deal points round-robin onto n_sites datasets.

    Site sizes differ by at most one; the parts are disjoint and their union
    is the input. Sites may come out empty when n_sites exceeds the dataset.
    """
    check_count(n_sites, "n_sites")
    check_count(seed, "seed", 0)
    order = np.random.default_rng(seed).permutation(len(ds))
    parts = [order[k::n_sites] for k in range(n_sites)]
    return [Dataset(ds.ids[part], ds.coords[part]) for part in parts]


def merge_streams(site_records: Sequence[Sequence[RepresentativeRecord]],
                  order: str = "interleave") -> list[RepresentativeRecord]:
    """Merge per-site streams into the global visit order.

    "interleave" sorts by (seq, site): every site's best representative comes
    before anyone's second-best. "concat" keeps whole sites together.

    Each site's records must carry the seqs 0..k-1 exactly once; a repeated
    (site, seq) key or a gap raises InputError, since either would hand one
    site's objects another representative's cluster id.
    """
    if order not in MERGE_ORDERS:
        raise InputError(f"unknown merge order {order!r}")
    merged = sorted((rec for records in site_records for rec in records), key=lambda r: r.key)
    site, seq = None, -1
    for rec in merged:
        if rec.key == (site, seq):
            raise InputError(f"representative (site, seq) = {rec.key} appears twice")
        if rec.seq != (seq + 1 if rec.site == site else 0):
            raise InputError(f"representative (site, seq) = {rec.key} breaks its site's seqs, "
                             f"which must run 0..k-1")
        site, seq = rec.key
    if order == "interleave":
        merged.sort(key=lambda r: r.seq)
    return merged


@dataclass
class PipelineResult:
    """One budget's run, its labels as arrays. Per site: its ids in id order, each one's owner seq
    in the full stream or -1, and its cluster id. The per-object dicts (`global_labeling`,
    `local_labelings`, `distributed`, `reference`) are views of the arrays, built on first access."""

    dataset: Dataset
    sites: list[Dataset]
    site_records: list[list[RepresentativeRecord]]
    merged: list[RepresentativeRecord]
    global_labels: np.ndarray  # in merged order
    site_ids: list[np.ndarray]
    site_owners: list[np.ndarray]
    site_labels: list[np.ndarray]
    reference_labels: np.ndarray  # per dataset row
    report: QualityReport
    cost: TransmissionCost
    site_seconds: tuple[float, ...]
    global_seconds: float

    @property
    def local_seconds(self) -> float:
        """Local phase under the distributed model: the slowest site, not the sum."""
        return max(self.site_seconds, default=0.0)

    @property
    def cpu_seconds(self) -> float:
        return self.local_seconds + self.global_seconds

    @cached_property
    def global_labeling(self) -> Labeling:
        return Labeling(dict(zip((rec.key for rec in self.merged), self.global_labels.tolist())))

    @cached_property
    def local_labelings(self) -> list[LocalLabeling]:
        return [LocalLabeling(dict(zip(ids.tolist(), labels.tolist())),
                              {oid: (k, seq) for oid, seq in zip(ids.tolist(), owner.tolist())
                               if 0 <= seq < len(records)})
                for k, (ids, owner, labels, records) in enumerate(
                    zip(self.site_ids, self.site_owners, self.site_labels, self.site_records))]

    @cached_property
    def distributed(self) -> dict[int, int]:
        return dict(zip(np.concatenate(self.site_ids).tolist(), np.concatenate(self.site_labels).tolist()))

    @cached_property
    def reference(self) -> Labeling:
        return Labeling(dict(zip(self.dataset.ids.tolist(), self.reference_labels.tolist())))


def _select_site(site_ds: Dataset, epsilon: float, limit: int, site: int):
    # Records, the ids in id order and their owner seqs, and the seconds (init included) at each
    # emission and in total.
    t0 = time.perf_counter()
    state = SelectionState(site_ds, epsilon, site=site)
    stamps = [time.perf_counter() - t0 for _ in state.run(StopCriterion.size(limit))]
    return state.chosen, state.ids, state.owner, stamps, time.perf_counter() - t0


def _worker_context():
    # Workers fork from one single-threaded server that imported this package once
    # (spawning costs each a ~1 s numpy/scipy import). Python 3.11's server ignores
    # the sys.path it is handed, so it starts with this one as its PYTHONPATH.
    if "forkserver" not in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("spawn")  # Windows
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload([__name__])
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, sys.path))
    try:
        multiprocessing.forkserver.ensure_running()
    finally:
        os.environ.pop("PYTHONPATH")
        if saved is not None:
            os.environ["PYTHONPATH"] = saved
    return ctx


def run_pipeline(cfg: ExperimentConfig, *, dataset: Dataset | None = None,
                 reference: Labeling | None = None) -> PipelineResult:
    """One full distributed run at the config's first budget.

    Pass `dataset`/`reference` to reuse work across runs; they must match the
    config's spec and params.
    """
    ds = dataset if dataset is not None else generate(cfg.dataset)
    if reference is None:
        ref = reference_labels(ds, cfg.params)
    else:  # checked as `evaluate` checks it: the dataset's ids, to cluster ids >= 0
        ref = label_arrays(dict.fromkeys(ds.ids.tolist(), NOISE), reference.labels)[1]
    return next(_runs(cfg, ds, [budget_to_stop(cfg.budgets[0])], ref))


def _runs(cfg: ExperimentConfig, ds: Dataset, stops: Sequence[StopCriterion],
          reference: np.ndarray) -> Iterator[PipelineResult]:
    """One run per budget, in order, from one selection per site at its largest count, scored
    against `reference`, the labels of the dataset's rows. Streams are prefix-stable: a budget of
    k records takes the first k, their owners (an object owned by seq k or later is uncovered)
    and the seconds until the k-th."""
    sites = partition(ds, cfg.n_sites, cfg.seed)
    limits = [[stop.resolve_count(len(site)) for site in sites] for stop in stops]
    site_args = (sites, repeat(cfg.epsilon), map(max, zip(*limits)), range(cfg.n_sites))
    if cfg.concurrent:
        with ProcessPoolExecutor(max_workers=min(cfg.n_sites, os.cpu_count() or 1),
                                 mp_context=_worker_context()) as pool:
            outcomes = list(pool.map(_select_site, *site_args))
    else:
        outcomes = list(map(_select_site, *site_args))
    streams, ids, owners, stamps, totals = zip(*outcomes)
    by_id = np.argsort(ds.ids)  # the reference in the order of the sites' ids, read once
    scored = reference[by_id[np.searchsorted(ds.ids, np.concatenate(ids), sorter=by_id)]]

    for counts in limits:
        site_records = [recs[:k] for recs, k in zip(streams, counts)]
        site_seconds = tuple(total if k >= len(recs) else times[k - 1]
                             for recs, times, total, k in zip(streams, stamps, totals, counts))
        merged = merge_streams(site_records, cfg.merge_order)
        t0 = time.perf_counter()
        labels = global_labels(merged, cfg.params)
        global_seconds = time.perf_counter() - t0
        # Each site's global labels by seq: the labels in (site, seq) order, cut at each site's count.
        keys = np.array([rec.key for rec in merged], np.intp).reshape(-1, 2)
        by_seq = np.split(labels[np.lexsort(keys.T[::-1])], np.cumsum(list(map(len, site_records)))[:-1])
        local = [owner_labels(owner, seq_labels) for owner, seq_labels in zip(owners, by_seq)]
        yield PipelineResult(ds, sites, site_records, merged, labels, list(ids), list(owners), local,
                             reference, score(np.concatenate(local), scored),
                             transmission_cost(len(merged), len(ds)), site_seconds, global_seconds)


@dataclass(frozen=True)
class SweepRow:
    fraction: Budget  # as given, so the count 1 and the fraction 1.0 stay apart
    n_sites: int
    quality: float
    bytes: int
    speedup: float
    cpu_time: float


def sweep(cfg: ExperimentConfig, *, site_counts: Sequence[int] | None = None) -> list[SweepRow]:
    """One row per (site count, budget) cell, the config's budgets inner and as given.

    The dataset is generated and the reference clustered once. Per site count,
    each site selects once and every budget is sliced from its stream and scored
    from label arrays; a row's `cpu_time` is what a run at that budget alone costs.
    """
    site_counts = tuple(site_counts) if site_counts is not None else (cfg.n_sites,)
    if not site_counts:
        raise InputError("empty site-count list")

    stops = [budget_to_stop(budget) for budget in cfg.budgets]
    ds = generate(cfg.dataset)
    reference = reference_labels(ds, cfg.params)
    rows = []
    for n_sites in site_counts:
        runs = _runs(replace(cfg, n_sites=n_sites), ds, stops, reference)
        for budget, run in zip(cfg.budgets, runs):
            rows.append(SweepRow(budget, n_sites, run.report.matching_quality,
                                 run.cost.bytes_distributed, run.cost.speedup, run.cpu_seconds))
    return rows


def write_sweep_csv(rows: Iterable[SweepRow], path: str | Path) -> None:
    write_table(path, ["fraction", "n_sites", "quality", "bytes", "speedup", "cpu_time"],
                ((row.fraction, row.n_sites, row.quality, row.bytes, row.speedup, row.cpu_time)
                 for row in rows))
