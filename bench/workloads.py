"""The benchmark's workloads, each runnable two ways.

``timed`` calls the workload's public entry point (``sweep``, ``run_pipeline``
or ``cli.main``) as a user would, with nothing recorded inside. ``traced`` does
the same work as separate calls into each module, in the order the entry point
makes them today, with a span around each call. Both paths hand their outputs
to ``verify``, which compares them with the independent computations in
``checks``.

Each workload's dataset is fixed (the seeds the paper experiments were frozen
on); the run seed decides the partition, i.e. which objects land on which site.
"""

from __future__ import annotations

import csv
import io
import json
import traceback
from contextlib import contextmanager, nullcontext, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from distclust import cli
from distclust.clustering import global_dbscan, reference_dbscan
from distclust.datagen import CLUSTER_PARAMS, dataset_spec, generate
from distclust.evaluation import evaluate
from distclust.pipeline import ExperimentConfig, merge_streams, partition, run_pipeline, sweep
from distclust.relabel import relabel_site
from distclust.representatives import SelectionState, StopCriterion

from checks import (
    Cell, Rec, check_cell, check_partition, check_reference, check_same, expected_count,
)


class Tracer:
    """Spans around calls into the program and counters, kept in memory until
    the run ends. A layer's figure is the sum of its spans."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, float] = {}

    @contextmanager
    def span(self, layer: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append((layer, start, perf_counter()))

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def totals(self) -> dict[str, float]:
        out = dict(self.counts)
        for layer, start, end in self.spans:
            out[layer + "_s"] = out.get(layer + "_s", 0.0) + (end - start)
        return out


def span(tr: Tracer | None, layer: str):
    return nullcontext() if tr is None else tr.span(layer)


@dataclass
class Inputs:
    ds: object  # distclust Dataset
    sites: dict  # site count -> list of site Datasets
    configs: dict  # site count -> ExperimentConfig
    workdir: Path


@dataclass
class Round:
    """One pass over a workload's operations."""

    attempted: int
    failed: int
    payload: object


def make_cell(fraction: float, sites, site_records, owners, merged, global_labels, distributed,
              report, bytes_: int | None = None) -> Cell:
    """A checkable cell from the program's in-memory outputs."""
    return Cell(
        fraction=fraction,
        site_ids=[s.ids for s in sites],
        site_coords=[s.coords for s in sites],
        records=[[Rec(r.site, r.seq, r.point.coords, r.cov_rad, r.cov_cnt, r.point.id)
                  for r in recs] for recs in site_records],
        owners=owners,
        merged_keys=[(r.site, r.seq) for r in merged],
        global_labels=global_labels,
        distributed=distributed,
        quality=report.matching_quality,
        ari=report.adjusted_rand,
        bytes=bytes_,
    )


def from_result(res, fraction: float) -> Cell:
    """The cell of a ``PipelineResult``; ownership comes from relabel provenance."""
    owners = [{oid: key[1] for oid, key in res.local_labelings[k].provenance.items()}
              for k in range(len(res.sites))]
    return make_cell(fraction, res.sites, res.site_records, owners, res.merged,
                     res.global_labeling.labels, res.distributed, res.report,
                     res.cost.bytes_distributed)


def pipeline_traced(cfg: ExperimentConfig, fraction: float, ds, reference,
                    tr: Tracer) -> tuple[Cell, dict[int, int]]:
    """``run_pipeline``'s calls as it makes them today, one span per layer.
    Returns the cell and the reference labels."""
    stop = StopCriterion.fraction(fraction)
    with tr.span("pipeline.partition"):
        sites = partition(ds, cfg.n_sites, cfg.seed)
    site_records, owners, site_seconds = [], [], []
    for k, site_ds in enumerate(sites):
        start = perf_counter()
        with tr.span("representatives.init"):
            state = SelectionState(site_ds, cfg.epsilon, site=k)
        with tr.span("representatives.select"):
            records = list(state.run(stop))
        site_seconds.append(perf_counter() - start)
        site_records.append(records)
        owners.append(dict(state.coverage_owner))
    tr.add("representatives.site_max_s", max(site_seconds))
    tr.add("representatives.records", sum(map(len, site_records)))
    tr.add("representatives.covered", sum(map(len, owners)))
    with tr.span("pipeline.merge"):
        merged = merge_streams(site_records, cfg.merge_order)
    with tr.span("clustering.global"):
        labeling = global_dbscan(merged, cfg.params)
    with tr.span("relabel.relabel"):
        distributed: dict[int, int] = {}
        for k, site_ds in enumerate(sites):
            distributed.update(relabel_site((p.id for p in site_ds), owners[k], labeling, k).labels)
    if reference is None:
        with tr.span("clustering.reference"):
            reference = reference_dbscan(ds, cfg.params)
    with tr.span("evaluation.evaluate"):
        report = evaluate(distributed, reference.labels)
    cell = make_cell(fraction, sites, site_records, owners, merged, labeling.labels, distributed,
                     report)
    return cell, reference.labels


def guarded(n_ops: int, fn) -> Round:
    """Run one pass; an exception fails all of its operations."""
    try:
        return Round(n_ops, 0, fn())
    except Exception:
        traceback.print_exc()
        return Round(n_ops, n_ops, None)


class Workload:
    name: str
    kind: str
    data_seed: int
    site_counts: tuple[int, ...]
    fractions: tuple[float, ...]
    spec_overrides: dict = {}
    params = CLUSTER_PARAMS["A"]

    def configs(self, seed: int) -> dict:
        spec = dataset_spec(self.kind, self.data_seed, **self.spec_overrides)
        return {n: ExperimentConfig(dataset=spec, n_sites=n, epsilon=self.params.epsilon,
                                    min_pts=self.params.min_pts, budgets=self.fractions, seed=seed)
                for n in self.site_counts}

    def setup(self, seed: int, workdir: Path, tr: Tracer | None) -> Inputs:
        configs = self.configs(seed)
        with span(tr, "datagen.generate"):
            ds = generate(next(iter(configs.values())).dataset)
        sites = {}
        for n in self.site_counts:
            with span(tr, "pipeline.partition"):
                sites[n] = partition(ds, n, seed)
        return Inputs(ds, sites, configs, workdir)

    def verify(self, inp: Inputs, payload, traced: bool) -> tuple[list[Cell], list[str]]:
        if payload is None:
            return [], ["no output to check: the run failed"]
        cells_of = self.cells_traced if traced else self.cells_timed
        cells, reference, problems = cells_of(inp, payload)
        eps, min_pts = self.params.epsilon, self.params.min_pts
        found, reference_want = check_reference(inp.ds.ids, inp.ds.coords, reference, eps, min_pts)
        problems += found
        for cell in cells:
            problems += check_partition(inp.ds.ids, cell.site_ids)
            problems += check_cell(cell, reference_want, eps, min_pts)
        return cells, problems


class TradeoffA(Workload):
    name = "tradeoff-A"
    kind = "A"
    data_seed = 20260809
    site_counts = (4,)
    fractions = (0.01, 0.02, 0.05, 0.1, 0.2)

    def timed(self, inp: Inputs) -> Round:
        return guarded(len(self.fractions), lambda: sweep(inp.configs[4]))

    def traced(self, inp: Inputs, tr: Tracer) -> Round:
        cfg = inp.configs[4]

        def run():
            with tr.span("trace.wall"):
                with tr.span("datagen.generate"):
                    ds = generate(cfg.dataset)
                with tr.span("clustering.reference"):
                    reference = reference_dbscan(ds, cfg.params)
                return [pipeline_traced(cfg, f, ds, reference, tr) for f in self.fractions]

        return guarded(len(self.fractions), run)

    def cells_timed(self, inp: Inputs, rows):
        # sweep returns only summary rows, so the cells are rebuilt for checking
        # from one selection per site at the largest budget: streams are
        # prefix-stable, so a budget of k records is the first k records, and
        # under it the objects owned by seq >= k are uncovered.
        cfg = inp.configs[4]
        reference = reference_dbscan(inp.ds, cfg.params)
        sites = inp.sites[4]
        streams, owners = [], []
        for k, site_ds in enumerate(sites):
            state = SelectionState(site_ds, cfg.epsilon, site=k)
            streams.append(list(state.run(StopCriterion.fraction(max(self.fractions)))))
            owners.append(dict(state.coverage_owner))
        cells, problems = [], []
        for frac, row in zip(self.fractions, rows, strict=True):
            if (row.fraction, row.n_sites) != (frac, 4):
                problems.append(f"sweep row {row} is not the cell at budget {frac}, 4 sites")
            counts = [expected_count(frac, len(s)) for s in sites]
            records = [stream[:n] for stream, n in zip(streams, counts)]
            owned = [{o: q for o, q in own.items() if q < n} for own, n in zip(owners, counts)]
            merged = merge_streams(records, cfg.merge_order)
            labeling = global_dbscan(merged, cfg.params)
            distributed: dict[int, int] = {}
            for k, site_ds in enumerate(sites):
                distributed.update(relabel_site(site_ds.ids.tolist(), owned[k], labeling, k).labels)
            cell = make_cell(frac, sites, records, owned, merged, labeling.labels, distributed,
                             evaluate(distributed, reference.labels), row.bytes)
            cell.quality = row.quality  # sweep's own figure is what gets checked
            cells.append(cell)
        return cells, reference.labels, problems

    def cells_traced(self, inp: Inputs, outs):
        return [cell for cell, _ in outs], outs[0][1], []


class Dense20k(Workload):
    name = "dense-20k"
    kind = "custom"
    data_seed = 3
    site_counts = (4,)
    fractions = (0.2,)
    spec_overrides = {"n_points": 20_000, "n_clusters": 10, "noise_fraction": 0.1}

    def timed(self, inp: Inputs) -> Round:
        return guarded(1, lambda: run_pipeline(inp.configs[4], dataset=inp.ds))

    def traced(self, inp: Inputs, tr: Tracer) -> Round:
        def run():
            with tr.span("trace.wall"):
                return pipeline_traced(inp.configs[4], self.fractions[0], inp.ds, None, tr)

        return guarded(1, run)

    def cells_timed(self, inp: Inputs, res):
        return [from_result(res, self.fractions[0])], res.reference.labels, []

    def cells_traced(self, inp: Inputs, out):
        cell, reference = out
        return [cell], reference, []


def write_table(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def read_table(path: Path, header: list[str]) -> list[list[str]]:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or rows[0] != header:
        raise ValueError(f"{path.name}: header is not {header}")
    return [row for row in rows[1:] if row]


def table_dict(path: Path, header: list[str], n_key: int, problems: list[str]) -> dict:
    """Int table keyed by its first n_key columns, valued by the next one;
    a repeated key is a problem, not a silent overwrite."""
    out = {}
    for row in read_table(path, header):
        nums = [int(v) for v in row]
        key = nums[0] if n_key == 1 else tuple(nums[:n_key])
        if key in out:
            problems.append(f"{path.name}: key {key} appears twice")
        out[key] = nums[n_key]
    return out


def read_stream(path: Path) -> list[Rec]:
    with open(path) as f:
        return [Rec(o["site"], o["seq"], tuple(o["coords"]), o["cov_rad"], o["cov_cnt"])
                for o in map(json.loads, f)]


def call_cli(tr: Tracer | None, layer: str, argv: list) -> bool:
    with span(tr, layer), redirect_stdout(io.StringIO()):
        try:
            return cli.main([str(a) for a in argv]) == 0
        except Exception:
            traceback.print_exc()
            return False


class SitesBCli(Workload):
    name = "sites-B-cli"
    kind = "B"
    params = CLUSTER_PARAMS["B"]
    data_seed = 20260809
    site_counts = (2, 4, 8, 12)
    fractions = (0.13,)

    def setup(self, seed: int, workdir: Path, tr: Tracer | None) -> Inputs:
        inp = super().setup(seed, workdir, tr)
        for n, sites in inp.sites.items():
            folder = workdir / f"sites{n}"
            folder.mkdir(exist_ok=True)
            for k, site_ds in enumerate(sites):
                write_table(folder / f"site{k}.csv", ["id"] + [f"c{j}" for j in range(site_ds.dim)],
                            ([i] + [repr(c) for c in row]
                             for i, row in zip(site_ds.ids.tolist(), site_ds.coords.tolist())))
        return inp

    def cli_round(self, inp: Inputs, tr: Tracer | None) -> Round:
        """gen, then per site count: local per site, global, relabel per site, eval."""
        ops = Round(0, 0, None)
        eps, min_pts = repr(self.params.epsilon), self.params.min_pts

        def run(layer: str, *argv) -> bool:
            ok = call_cli(tr, layer, argv)
            ops.attempted += 1
            ops.failed += not ok
            return ok

        w = inp.workdir
        run("cli.gen", "gen", "--kind", self.kind, "--seed", self.data_seed,
            "--out", w / "dataset.csv")
        with span(tr, "clustering.reference"):
            reference = reference_dbscan(inp.ds, self.params)
        write_table(w / "reference.csv", ["id", "cluster_id"], sorted(reference.labels.items()))
        stream_bytes = 0
        for n in self.site_counts:
            d = w / f"sites{n}"
            streams = [d / f"reps{k}.jsonl" for k in range(n)]
            labels = [d / f"labels{k}.csv" for k in range(n)]
            ok = True
            for k in range(n):
                ok &= run("cli.local", "local", "--in", d / f"site{k}.csv", "--eps", eps,
                          "--budget", self.fractions[0], "--site", k, "--out", streams[k],
                          "--owners", d / f"owners{k}.csv")
            ok &= run("cli.global", "global", "--reps", *streams, "--eps", eps, "--minpts", min_pts,
                      "--out", d / "global.csv")
            for k in range(n):
                ok &= run("cli.relabel", "relabel", "--dataset", d / f"site{k}.csv",
                          "--owners", d / f"owners{k}.csv", "--global-labels", d / "global.csv",
                          "--site", k, "--out", labels[k])
            n_reps = sum(len(p.read_bytes().splitlines()) for p in streams if p.exists())
            ok &= run("cli.eval", "eval", "--dist", *labels, "--ref", w / "reference.csv",
                      "--out", d / "report.json", "--cost-out", d / "cost.csv", "--n-reps", n_reps)
            stream_bytes += sum(p.stat().st_size for p in streams if p.exists())
            ops.attempted += 1
            ops.failed += not ok
        if tr is not None:
            tr.add("cli.stream_bytes", stream_bytes)
        ops.payload = reference
        return ops

    def timed(self, inp: Inputs) -> Round:
        return self.cli_round(inp, None)

    def traced(self, inp: Inputs, tr: Tracer) -> Round:
        with tr.span("trace.wall"):
            ops = self.cli_round(inp, tr)
        # The in-memory path on the same configs, traced: shows how much of
        # cli.local_s is selection and how much is file formats.
        outs = [pipeline_traced(inp.configs[n], self.fractions[0], inp.ds, ops.payload, tr)
                for n in self.site_counts]
        ops.payload = (ops.payload, outs)
        return ops

    def read_cell(self, inp: Inputs, n: int, problems: list[str]) -> Cell:
        d = inp.workdir / f"sites{n}"
        distributed: dict[int, int] = {}
        for k in range(n):
            part = table_dict(d / f"labels{k}.csv", ["id", "cluster_id", "owner_seq"], 1, problems)
            if distributed.keys() & part.keys():
                problems.append(f"labels{k}.csv: object ids already labeled by another site")
            distributed.update(part)
        report = json.loads((d / "report.json").read_text())
        cost = read_table(d / "cost.csv", ["frac", "bytes_distributed", "bytes_full", "speedup"])
        return Cell(
            fraction=self.fractions[0],
            site_ids=[s.ids for s in inp.sites[n]],
            site_coords=[s.coords for s in inp.sites[n]],
            records=[read_stream(d / f"reps{k}.jsonl") for k in range(n)],
            owners=[table_dict(d / f"owners{k}.csv", ["id", "owner_seq"], 1, problems)
                    for k in range(n)],
            merged_keys=None,
            global_labels=table_dict(d / "global.csv", ["site", "seq", "cluster_id"], 2, problems),
            distributed=distributed,
            quality=report["matching_quality"],
            ari=report["adjusted_rand"],
            bytes=int(cost[0][1]),
        )

    def files_vs_memory(self, inp: Inputs, memory: list[Cell]):
        problems: list[str] = []
        rows = read_table(inp.workdir / "dataset.csv", ["id", "c0", "c1"])
        if [(int(r[0]), float(r[1]), float(r[2])) for r in rows] != [
                (i, *row) for i, row in zip(inp.ds.ids.tolist(), inp.ds.coords.tolist())]:
            problems.append("dataset.csv written by `gen` differs from generate()")
        cells = [self.read_cell(inp, n, problems) for n in self.site_counts]
        for n, file_cell, mem_cell in zip(self.site_counts, cells, memory):
            problems += check_same(f"{n} sites, files vs in-memory", file_cell, mem_cell)
        return cells, problems

    def cells_timed(self, inp: Inputs, reference):
        memory = []
        for n in self.site_counts:
            res = run_pipeline(inp.configs[n], dataset=inp.ds, reference=reference)
            memory.append(from_result(res, self.fractions[0]))
        cells, problems = self.files_vs_memory(inp, memory)
        return cells, reference.labels, problems

    def cells_traced(self, inp: Inputs, payload):
        reference, outs = payload
        cells, problems = self.files_vs_memory(inp, [cell for cell, _ in outs])
        return cells, reference.labels, problems


WORKLOADS = {w.name: w for w in (TradeoffA(), Dense20k(), SitesBCli())}
