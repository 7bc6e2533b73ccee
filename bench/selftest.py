#!/usr/bin/env python3
"""Self-test of the benchmark's checkers: each must pass a real output and
reject it after one deliberate corruption (a flipped label, a dropped record,
a duplicated (site, seq) key).

    python3 bench/selftest.py

Runs a small pipeline (kind C, 3 sites, 10%) in a few seconds and exits 1 if
any checker accepts a corrupted output or rejects the clean one.
"""

from __future__ import annotations

import copy
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from distclust.datagen import CLUSTER_PARAMS, dataset_spec  # noqa: E402
from distclust.pipeline import ExperimentConfig, run_pipeline  # noqa: E402

from checks import (  # noqa: E402
    check_cell, check_global, check_reference, check_relabel, check_same, check_scores,
    check_selection,
)
from workloads import from_result, table_dict, write_table  # noqa: E402

FRACTION = 0.1


def flip(labels: dict, key) -> dict:
    labels = dict(labels)
    labels[key] = labels[key] + 1
    return labels


def drop(labels: dict, key) -> dict:
    return {k: v for k, v in labels.items() if k != key}


def main() -> int:
    params = CLUSTER_PARAMS["C"]
    cfg = ExperimentConfig(dataset=dataset_spec("C", 7), n_sites=3, epsilon=params.epsilon,
                           min_pts=params.min_pts, budgets=(FRACTION,), seed=7)
    res = run_pipeline(cfg)
    clean = from_result(res, FRACTION)
    ds, eps, min_pts = res.dataset, params.epsilon, params.min_pts
    ref = res.reference.labels

    def reference(labels):
        return check_reference(ds.ids, ds.coords, labels, eps, min_pts)[0]

    def selection(records=None, owners=None):
        return check_selection(0, clean.site_ids[0], clean.site_coords[0],
                               clean.records[0] if records is None else records,
                               clean.owners[0] if owners is None else owners, eps, FRACTION)[0]

    def global_(labels):
        return check_global(clean.records, clean.merged_keys, labels, eps, min_pts)[0]

    def relabel(distributed):
        return check_relabel(clean.site_ids, clean.owners, clean.global_labels, distributed)[0]

    def cell(**changes):
        corrupted = copy.deepcopy(clean)
        for name, value in changes.items():
            setattr(corrupted, name, value)
        return check_cell(corrupted, ref, eps, min_pts)

    def same(**changes):
        corrupted = copy.deepcopy(clean)
        for name, value in changes.items():
            setattr(corrupted, name, value)
        return check_same("self-test", corrupted, clean)

    def duplicated_row() -> list[str]:
        problems: list[str] = []
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "global.csv"
            rows = [[s, q, c] for (s, q), c in sorted(clean.global_labels.items())]
            write_table(path, ["site", "seq", "cluster_id"], rows + rows[:1])
            table_dict(path, ["site", "seq", "cluster_id"], 2, problems)
        return problems

    recs0 = clean.records[0]
    some_oid = next(iter(clean.owners[0]))
    some_key = clean.merged_keys[3]
    first_obj = int(ds.ids[0])
    # Site 1's stream claims to come from site 0, so its keys collide with site 0's.
    twin_site = [clean.records[0], [r._replace(site=0) for r in clean.records[1]],
                 *clean.records[2:]]

    clean_runs = {
        "reference": reference(ref),
        "selection": selection(),
        "global": global_(clean.global_labels),
        "relabel": relabel(clean.distributed),
        "scores": check_scores(clean.distributed, ref, clean.quality, clean.ari),
        "cell": check_cell(clean, ref, eps, min_pts),
    }
    corrupted_runs = {
        ("reference", "flipped label"): reference(flip(ref, first_obj)),
        ("reference", "dropped record"): reference(drop(ref, first_obj)),
        ("selection", "flipped label"): selection(owners=flip(clean.owners[0], some_oid)),
        ("selection", "dropped record"): selection(records=recs0[:2] + recs0[3:]),
        ("selection", "duplicated key"): selection(records=recs0 + [recs0[-1]]),
        ("global", "flipped label"): global_(flip(clean.global_labels, some_key)),
        ("global", "dropped record"): global_(drop(clean.global_labels, some_key)),
        ("global", "duplicated key"): check_global(twin_site, None, clean.global_labels,
                                                   eps, min_pts)[0],
        ("relabel", "flipped label"): relabel(flip(clean.distributed, some_oid)),
        ("relabel", "dropped record"): relabel(drop(clean.distributed, some_oid)),
        ("scores", "flipped label"): check_scores(flip(clean.distributed, some_oid), ref,
                                                  clean.quality, clean.ari),
        ("cell", "flipped label"): cell(global_labels=flip(clean.global_labels, some_key)),
        ("cell", "dropped record"): cell(records=[recs0[:-1]] + clean.records[1:]),
        ("cell", "duplicated key"): cell(records=twin_site),
        ("cell", "bytes for one record less"): cell(bytes=clean.bytes - 108),
        ("files vs memory", "flipped label"): same(distributed=flip(clean.distributed, some_oid)),
        ("files vs memory", "dropped record"): same(records=[recs0[:-1]] + clean.records[1:]),
        ("files vs memory", "duplicated key"): same(records=twin_site),
        ("label files", "duplicated key"): duplicated_row(),
    }
    failures = 0
    for name, problems in clean_runs.items():
        if problems:
            failures += 1
            print(f"FAIL {name}: rejected a clean output: {problems[0]}")
    for (name, corruption), problems in corrupted_runs.items():
        if problems:
            print(f"ok   {name} rejects {corruption}: {problems[0]}")
        else:
            failures += 1
            print(f"FAIL {name} accepted {corruption}")
    print(f"{len(clean_runs) + len(corrupted_runs) - failures} passed, {failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
