import multiprocessing
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles
from conftest import as_pairs, make_dataset, random_dataset
from distclust import InputError, SelectionState, StopCriterion, pipeline
from distclust.clustering import Labeling, reference_dbscan, reference_labels
from distclust.datagen import CLUSTER_PARAMS, DatasetSpec, dataset_spec, generate
from distclust.pipeline import (
    ExperimentConfig,
    SweepRow,
    budget_to_stop,
    merge_streams,
    partition,
    run_pipeline,
    sweep,
    write_sweep_csv,
)
from distclust.representatives import RepresentativeRecord


def tiny_config(**overrides):
    spec = dataset_spec("custom", seed=5, n_points=120, n_clusters=2,
                        noise_fraction=0.1, min_center_separation=40.0,
                        sigma_range=(2.0, 3.0))
    base = dict(dataset=spec, n_sites=3, epsilon=3.0, min_pts=5, budgets=(0.3,), seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------ partition

def test_partition_single_site(rng):
    ds = random_dataset(rng, 20)
    parts = partition(ds, 1, seed=0)
    assert len(parts) == 1
    assert sorted(p.id for p in parts[0]) == sorted(p.id for p in ds)


def test_partition_sizes_differ_by_at_most_one(rng):
    ds = random_dataset(rng, 10)
    parts = partition(ds, 3, seed=1)
    assert sorted(len(p) for p in parts) == [3, 3, 4]


def test_partition_is_exact_cover(rng):
    ds = random_dataset(rng, 57)
    parts = partition(ds, 4, seed=2)
    all_ids = [p.id for part in parts for p in part]
    assert sorted(all_ids) == sorted(p.id for p in ds)


def test_partition_more_sites_than_points(rng):
    ds = random_dataset(rng, 3)
    parts = partition(ds, 5, seed=0)
    assert len(parts) == 5
    assert sum(len(p) for p in parts) == 3
    assert {len(p) for p in parts} <= {0, 1}
    ds = random_dataset(rng, 4, dim=3)
    rows = dict(zip(ds.ids.tolist(), ds.coords.tolist()))
    parts = partition(ds, 7, seed=1)
    assert sorted(len(p) for p in parts) == [0, 0, 0, 1, 1, 1, 1]
    for part in parts:
        assert part.dim == 3 and part.coords.shape == (len(part), 3)
        assert all(rows[i] == row for i, row in zip(part.ids.tolist(), part.coords.tolist()))


@pytest.mark.parametrize("n_sites", [2.5, True])
def test_partition_rejects_a_non_integer_site_count(rng, n_sites):
    with pytest.raises(InputError, match="n_sites must be an integer"):
        partition(random_dataset(rng, 10), n_sites, seed=0)


def test_partition_rejects_a_negative_seed(rng):
    with pytest.raises(InputError, match="seed"):
        partition(random_dataset(rng, 5), 2, seed=-1)


def test_partition_rejects_zero_sites(rng):
    with pytest.raises(InputError, match="n_sites"):
        partition(random_dataset(rng, 5), 0, 1)


def test_partition_deterministic(rng):
    ds = random_dataset(rng, 30)
    a = partition(ds, 4, seed=9)
    b = partition(ds, 4, seed=9)
    assert [[p.id for p in part] for part in a] == [[p.id for p in part] for part in b]


# ---------------------------------------------------------------- merge order

def _rec(site, seq):
    from distclust import Point

    return RepresentativeRecord(Point(seq, (float(site), float(seq))), 0.0, 1, site, seq)


def _unchecked_rec(site, seq):
    """A record built past its constructor's checks, as a duck-typed caller
    could hand one in: merge_streams must still hold its own 0..k-1 check."""
    rec = object.__new__(RepresentativeRecord)
    for name, value in vars(_rec(0, 0)).items():
        object.__setattr__(rec, name, value)
    object.__setattr__(rec, "site", site)
    object.__setattr__(rec, "seq", seq)
    return rec


def test_merge_interleave_puts_best_first():
    streams = [[_rec(0, 0), _rec(0, 1)], [_rec(1, 0), _rec(1, 1), _rec(1, 2)]]
    merged = merge_streams(streams, "interleave")
    assert [(r.seq, r.site) for r in merged] == [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)]


def test_merge_concat_keeps_sites_together():
    streams = [[_rec(1, 0)], [_rec(0, 0), _rec(0, 1)]]
    merged = merge_streams(streams, "concat")
    assert [(r.site, r.seq) for r in merged] == [(0, 0), (0, 1), (1, 0)]


def test_merge_rejects_duplicate_site_seq_keys():
    # The same stream passed twice: both copies claim site 0.
    stream = [_rec(0, 0), _rec(0, 1), _rec(0, 2)]
    for order in ("interleave", "concat"):
        with pytest.raises(InputError, match="appears twice"):
            merge_streams([stream, stream], order)


def test_merge_rejects_seq_gaps():
    with pytest.raises(InputError, match="0..k-1"):
        merge_streams([[_rec(0, 0), _rec(0, 2)], [_rec(1, 0)]])
    with pytest.raises(InputError, match="0..k-1"):
        merge_streams([[_rec(3, 1)]])


@pytest.mark.parametrize("order", ["interleave", "concat"])
@pytest.mark.parametrize("streams,message,key", [
    ([[_rec(0, 0), _rec(0, 1), _rec(0, 1)]], "appears twice", (0, 1)),
    ([[_unchecked_rec(0, -1), _rec(0, 0)]], "0..k-1", (0, -1)),
    ([[_rec(0, 0), _rec(0, 1)], [_rec(1, 0)], [_rec(2, 0), _rec(2, 2)]], "0..k-1", (2, 2)),
], ids=["repeat-in-one-stream", "negative-seq", "gap-in-a-later-site"])
def test_merge_names_the_first_bad_key(streams, message, key, order):
    with pytest.raises(InputError, match=message) as info:
        merge_streams(streams, order)
    assert str(key) in str(info.value)


def test_merge_rejects_an_unknown_order():
    with pytest.raises(InputError, match="merge order"):
        merge_streams([[_rec(0, 0)]], "bogus")


def test_merge_accepts_empty_and_prefix_streams():
    assert merge_streams([[], [_rec(1, 0)]]) == [_rec(1, 0)]
    assert merge_streams([]) == []


def test_budget_parsing():
    assert budget_to_stop(0.25) == StopCriterion.fraction(0.25)
    assert budget_to_stop(12) == StopCriterion.size(12)
    assert budget_to_stop(np.int64(2)) == StopCriterion.size(2)
    assert budget_to_stop(np.float64(0.5)) == StopCriterion.fraction(0.5)
    assert budget_to_stop(np.float32(0.5)) == StopCriterion.fraction(0.5)
    with pytest.raises(InputError):
        budget_to_stop(True)
    with pytest.raises(InputError, match="bad budget"):
        budget_to_stop(np.True_)
    with pytest.raises(InputError):
        budget_to_stop(0.0)
    with pytest.raises(InputError, match="bad budget"):
        budget_to_stop("0.1")


# ------------------------------------------------------------------- pipeline

def test_pipeline_conservation_and_reports():
    result = run_pipeline(tiny_config())
    assert sorted(result.distributed) == [p.id for p in result.dataset]
    ids_per_site = [sorted(l.labels) for l in result.local_labelings]
    assert sorted(i for ids in ids_per_site for i in ids) == sorted(result.distributed)
    assert 0.0 <= result.report.matching_quality <= 1.0
    assert result.cost.bytes_distributed == len(result.merged) * 108
    # Distributed-time model: the local phase costs as much as the slowest site.
    assert len(result.site_seconds) == 3
    assert result.local_seconds == max(result.site_seconds)
    assert result.cpu_seconds == result.local_seconds + result.global_seconds


def test_pipeline_epsilon_below_min_pairwise_distance_reduces_to_reference():
    # Grid spacing 1, epsilon 0.5: every representative covers only itself, so
    # a full-budget run transmits the whole dataset and must match the
    # centralized result exactly.
    coords = [(float(i), float(j)) for i in range(6) for j in range(6)]
    ds = make_dataset(coords)
    spec = dataset_spec("custom", seed=0, n_points=36, n_clusters=1)
    cfg = ExperimentConfig(dataset=spec, n_sites=2, epsilon=0.5, min_pts=2, budgets=(1.0,))
    result = run_pipeline(cfg, dataset=ds)
    assert all(r.cov_cnt == 1 and r.cov_rad == 0.0 for r in result.merged)
    assert result.report.matching_quality == 1.0
    assert result.report.adjusted_rand == 1.0


def test_pipeline_single_site_full_budget_covers_everything():
    result = run_pipeline(tiny_config(n_sites=1, budgets=(1.0,)))
    assert sum(r.cov_cnt for r in result.merged) == len(result.dataset)


def test_concurrent_equals_sequential():
    sequential = run_pipeline(tiny_config(concurrent=False))
    concurrent = run_pipeline(tiny_config(concurrent=True))
    assert concurrent.distributed == sequential.distributed
    assert concurrent.global_labeling.labels == sequential.global_labeling.labels
    assert [(r.site, r.seq, r.point.id) for r in concurrent.merged] == [
        (r.site, r.seq, r.point.id) for r in sequential.merged
    ]
    assert concurrent.report == sequential.report


def test_worker_error_crosses_the_process_boundary():
    with pytest.raises(InputError, match="epsilon must be positive"):
        run_pipeline(tiny_config(epsilon=0.0))
    with pytest.raises(InputError, match="epsilon must be positive"):
        run_pipeline(tiny_config(epsilon=0.0, concurrent=True))
    with pytest.raises(InputError, match="epsilon must be positive and finite"):
        run_pipeline(tiny_config(epsilon=float("inf"), concurrent=True))
    for epsilon in (True, "2"):
        with pytest.raises(InputError, match="epsilon must be positive and finite"):
            run_pipeline(tiny_config(epsilon=epsilon))
    assert multiprocessing.active_children() == []


def test_pipeline_deterministic_end_to_end():
    a = run_pipeline(tiny_config())
    b = run_pipeline(tiny_config())
    assert a.distributed == b.distributed
    assert a.report == b.report


def test_reference_reuse_gives_same_report():
    cfg = tiny_config()
    first = run_pipeline(cfg)
    again = run_pipeline(cfg, dataset=first.dataset, reference=first.reference)
    assert again.report == first.report
    # Passed in reversed key order with numpy ints, it reads back as an equal view in row order.
    reversed_ref = Labeling({oid: np.int64(label) for oid, label in reversed(first.reference.labels.items())})
    again = run_pipeline(cfg, dataset=first.dataset, reference=reversed_ref)
    assert again.reference.labels == reversed_ref.labels
    assert list(again.reference.labels) == first.dataset.ids.tolist()
    assert {type(label) for label in again.reference.labels.values()} == {int}
    assert again.report == first.report
    # A run sliced from a longer selection builds no per-object dict until one is read, so `sweep`
    # builds none; each view equals the one of a run at that budget alone.
    ds = first.dataset
    stops = [budget_to_stop(0.3), budget_to_stop(1.0)]
    run = next(pipeline._runs(cfg, ds, stops, reference_labels(ds, cfg.params)))
    views = {"global_labeling", "local_labelings", "distributed", "reference"}
    assert not views & vars(run).keys()
    assert run.distributed == first.distributed
    assert views & vars(run).keys() == {"distributed"}
    assert run.global_labeling == first.global_labeling
    assert run.local_labelings == first.local_labelings
    assert run.reference == first.reference


def composed_oracles(ds, cfg, budget):
    """The distributed side from the oracles alone: per-site naive selection, the
    merge, literal weighted DBSCAN and relabel by owner. Returns (global labels,
    distributed labels, merged stream of (seq, site, coords, cov_rad, cov_cnt), per site its
    (site, ids, owner))."""
    stop = budget_to_stop(budget)
    stream, owners = [], []
    for site, part in enumerate(partition(ds, cfg.n_sites, cfg.seed)):
        records, owner = oracles.naive_select(as_pairs(part), cfg.epsilon,
                                              size_bound=stop.resolve_count(len(part)))
        coords = dict(as_pairs(part))
        stream += [(seq, site, coords[oid], rad, cnt) for seq, (oid, rad, cnt) in enumerate(records)]
        owners.append((site, part.ids.tolist(), owner))
    stream.sort(key=lambda r: (r[0], r[1]) if cfg.merge_order == "interleave" else (r[1], r[0]))
    labels = oracles.literal_weighted_dbscan([r[2:] for r in stream], cfg.epsilon, cfg.min_pts)
    global_labels = {(site, seq): label for (seq, site, *_), label in zip(stream, labels)}
    distributed = {oid: global_labels[(site, owner[oid])] if oid in owner else 0
                   for site, ids, owner in owners for oid in ids}
    return global_labels, distributed, stream, owners


@pytest.mark.parametrize("dim,merge_order,concurrent", [
    *((dim, order, False) for dim in range(1, 7) for order in ("interleave", "concat")),
    (3, "interleave", True),
])
def test_run_pipeline_equals_composed_oracles(dim, merge_order, concurrent):
    spec = DatasetSpec(n_points=300, n_clusters=3, noise_fraction=0.1, seed=dim,
                       bounds=((0.0, 40.0),) * dim, sigma_range=(1.0, 1.5), min_center_separation=12.0)
    cfg = ExperimentConfig(dataset=spec, n_sites=3, epsilon=1.2 * dim ** 0.5, min_pts=5, seed=dim,
                           merge_order=merge_order, concurrent=concurrent)
    ds = generate(spec)
    ref_labels = oracles.literal_dbscan(as_pairs(ds), cfg.epsilon, cfg.min_pts)
    reference = None
    # Every object is picked at 1.0 and at 150 (past every 100-object site): a zero-count tail.
    for budget, full in ((1, False), (0.05, False), (0.3, False), (1.0, True), (150, True)):
        result = run_pipeline(replace(cfg, budgets=(budget,)), dataset=ds, reference=reference)
        reference = result.reference
        global_labels, distributed, stream, owners = composed_oracles(ds, cfg, budget)
        assert result.global_labeling.labels == global_labels
        assert result.distributed == distributed
        # The oracle stops at each site's count, so its owners are the seqs below it.
        for local, (site, ids, owner) in zip(result.local_labelings, owners, strict=True):
            assert list(local.labels) == sorted(ids)
            assert local.labels == {oid: distributed[oid] for oid in ids}
            assert local.provenance == {oid: (site, seq) for oid, seq in owner.items()}
        assert result.reference.labels == ref_labels
        assert result.report.matching_quality == pytest.approx(
            oracles.brute_best_matching(distributed, ref_labels), abs=1e-12)
        assert result.report.adjusted_rand == pytest.approx(
            oracles.pair_counting_ari(distributed, ref_labels), abs=1e-9)
        if full:
            assert any(cnt == 0 for *_, cnt in stream)
            assert [r.cov_cnt for r in result.merged] == [cnt for *_, cnt in stream]


# ---------------------------------------------------------------------- sweep

def test_sweep_grid_shape_and_csv(tmp_path):
    cfg = tiny_config()
    rows = sweep(replace(cfg, budgets=(0.1, 0.3)), site_counts=[2, 3])
    assert len(rows) == 4
    assert [(r.fraction, r.n_sites) for r in rows] == [
        (0.1, 2), (0.3, 2), (0.1, 3), (0.3, 3)
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "fraction,n_sites,quality,bytes,speedup,cpu_time"
    assert len(lines) == 5


def test_sweep_quality_grows_with_budget():
    rows = sweep(tiny_config(budgets=(0.05, 0.5)), site_counts=[2])
    assert rows[1].quality >= rows[0].quality - 0.03
    assert rows[0].speedup > rows[1].speedup


def kind_config(kind, seed, n_sites, **overrides):
    params = CLUSTER_PARAMS[kind]
    return ExperimentConfig(dataset=dataset_spec(kind, seed=seed), n_sites=n_sites,
                            epsilon=params.epsilon, min_pts=params.min_pts, seed=seed, **overrides)


def per_budget_rows(cfg, fractions, site_counts):
    """The rows of independent per-budget runs, built as sweep builds them, cpu_time 0."""
    ds = generate(cfg.dataset)
    reference = reference_dbscan(ds, cfg.params)
    rows = []
    for n_sites in site_counts:
        for frac in fractions:
            result = run_pipeline(replace(cfg, n_sites=n_sites, budgets=(frac,)),
                                  dataset=ds, reference=reference)
            rows.append(SweepRow(frac, n_sites, result.report.matching_quality,
                                 result.cost.bytes_distributed, result.cost.speedup, 0.0))
    return rows


def without_cpu_time(rows):
    return [replace(row, cpu_time=0.0) for row in rows]


@pytest.mark.parametrize("cfg, fractions, site_counts", [
    pytest.param(kind_config("A", 20260809, 4), [0.01, 0.02, 0.05, 0.1, 0.2], [4], id="kind-A"),
    pytest.param(tiny_config(), [0.1, 0.3], [1, 3, 7], id="site-grid"),
    # Unsorted, repeated, count and fraction; 20 records exceed every 7-site share of 120.
    pytest.param(tiny_config(), [0.3, 20, 0.05, 0.3, 1, 1.0], [7, 2], id="mixed-budgets"),
    pytest.param(tiny_config(merge_order="concat"), [0.05, 0.5, 0.2], [3], id="concat"),
])
def test_sliced_sweep_equals_per_budget_runs(cfg, fractions, site_counts):
    rows = sweep(replace(cfg, budgets=tuple(fractions)), site_counts=site_counts)
    assert without_cpu_time(rows) == per_budget_rows(cfg, fractions, site_counts)
    assert [type(row.fraction) for row in rows] == [type(f) for f in fractions * len(site_counts)]


@pytest.mark.parametrize("merge_order", ["interleave", "concat"])
def test_sweep_quality_equals_the_from_definition_route(merge_order):
    # `run_pipeline` shares `sweep`'s array core; this route shares only the selection. Per budget:
    # owners cut to the seqs below each site's count, global labels from the literal weighted
    # DBSCAN over the merged records, and the best matching tried in full against literal DBSCAN.
    cfg = tiny_config(merge_order=merge_order)
    budgets = (0.05, 0.1, 0.3, 0.6, 1.0)
    ds = generate(cfg.dataset)
    reference = oracles.literal_dbscan(as_pairs(ds), cfg.epsilon, cfg.min_pts)
    sites = partition(ds, cfg.n_sites, cfg.seed)
    states = [SelectionState(site, cfg.epsilon, site=k) for k, site in enumerate(sites)]
    streams = [list(state.run(StopCriterion.fraction(1.0))) for state in states]
    rows = sweep(replace(cfg, budgets=budgets))
    assert [row.fraction for row in rows] == list(budgets)
    for budget, row in zip(budgets, rows):
        counts = [budget_to_stop(budget).resolve_count(len(site)) for site in sites]
        owners = [{oid: seq for oid, seq in state.coverage_owner.items() if seq < k}
                  for state, k in zip(states, counts)]
        merged = sorted((rec for recs, k in zip(streams, counts) for rec in recs[:k]),
                        key=lambda r: (r.seq, r.site) if merge_order == "interleave" else r.key)
        labels = oracles.literal_weighted_dbscan([(r.point.coords, r.cov_rad, r.cov_cnt) for r in merged],
                                                 cfg.epsilon, cfg.min_pts)
        global_labels = dict(zip((r.key for r in merged), labels))
        distributed = {oid: global_labels[(k, owners[k][oid])] if oid in owners[k] else 0
                       for k, site in enumerate(sites) for oid in site.ids.tolist()}
        assert row.quality == pytest.approx(oracles.brute_best_matching(distributed, reference), abs=1e-12)


def test_concurrent_sweep_equals_sequential():
    cfg = tiny_config(budgets=(0.3, 0.05, 1.0, 4))
    assert without_cpu_time(sweep(replace(cfg, concurrent=True), site_counts=[1, 3])) == (
        without_cpu_time(sweep(cfg, site_counts=[1, 3])))
    assert multiprocessing.active_children() == []


def test_sweep_keeps_count_and_fraction_budgets_apart(tmp_path):
    # The count 1 (one record per site) and the fraction 1.0 (whole sites).
    rows = sweep(kind_config("C", 1, 3, budgets=(1, 1.0)))
    assert [(type(r.fraction), r.bytes) for r in rows] == [(int, 3 * 108), (float, 1021 * 108)]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    assert [line.split(",")[0] for line in path.read_text().splitlines()[1:]] == ["1", "1.0"]


def test_sweep_cpu_time_is_each_budgets_own_run(monkeypatch):
    select, outcomes = pipeline._select_site, []

    def recording(*args):
        outcomes.append(select(*args))
        return outcomes[-1]

    monkeypatch.setattr(pipeline, "_select_site", recording)
    cfg = tiny_config()
    ds = generate(cfg.dataset)
    budgets = [0.1, 0.5, 3, 0.3]
    stops = [budget_to_stop(budget) for budget in budgets]
    results = list(pipeline._runs(cfg, ds, stops, reference_labels(ds, cfg.params)))
    assert len(outcomes) == cfg.n_sites  # one selection per site for all budgets
    for records, _, _, stamps, total in outcomes:
        assert len(stamps) == len(records)
        assert stamps == sorted(stamps) and stamps[-1] <= total
    # A budget's seconds per site: the stamp of its k-th record; 0.5 is the largest.
    assert results[1].site_seconds == tuple(total for *_, total in outcomes)
    for stop, result in zip(stops, results):
        counts = [stop.resolve_count(len(site)) for site in result.sites]
        assert [len(records) for records in result.site_records] == counts
        assert result.site_seconds == tuple(
            stamps[k - 1] if k < len(records) else total
            for (records, _, _, stamps, total), k in zip(outcomes, counts))


def test_sweep_rejects_empty_ranges():
    # An empty budget list is the config's to reject (test_config_validation).
    with pytest.raises(InputError):
        sweep(tiny_config(budgets=(0.1,)), site_counts=[])


def test_config_validation():
    with pytest.raises(InputError):
        tiny_config(n_sites=0)
    with pytest.raises(InputError):
        tiny_config(budgets=())
    with pytest.raises(InputError):
        tiny_config(merge_order="random")
    with pytest.raises(InputError, match="epsilon"):
        tiny_config(epsilon=float("nan"))


@pytest.mark.parametrize("budgets", [0.1, "0.1", np.array(0.1)], ids=["float", "string", "0-d-array"])
def test_config_rejects_budgets_that_are_no_list(budgets):
    # Named whole: a float has no items to iterate, and a string's first would be the budget '0'.
    message = f"budgets must be a non-string iterable, got {budgets!r}"
    with pytest.raises(InputError, match=re.escape(message)):
        tiny_config(budgets=budgets)


def test_config_stores_an_array_of_budgets_as_a_tuple():
    # An array's truth value is ambiguous; the config keeps its items as a tuple.
    cfg = tiny_config(budgets=np.array([0.1, 0.2]))
    assert type(cfg.budgets) is tuple and cfg.budgets == (0.1, 0.2)
    assert [row.fraction for row in sweep(cfg)] == [0.1, 0.2]


@pytest.mark.parametrize("field,value", [("n_sites", 2.5), ("n_sites", True), ("min_pts", 2.5),
                                         ("seed", 2.5), ("seed", True), ("seed", -1)])
def test_config_counts_must_be_integers(field, value):
    # Caught when the config is built, not by `range` after the reference is clustered.
    with pytest.raises(InputError, match=f"{field} must be an integer"):
        tiny_config(**{field: value})
