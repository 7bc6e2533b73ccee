"""Frozen SHA-256 digests of the program's outputs on seven fixed sets.

`digests.json` holds one digest per (set, output) pair, so a failure names every output
that moved. The outputs are the generated dataset; `run_pipeline` at 20%, 4 sites, seed 1
(merged records, global, distributed and reference labels, report, cost); the global labels
of those 4 sites' full (100%) streams in both merge orders, where most records are zero-count;
and each of those 4 sites' `SelectionState` run to 50% (records, owners, `candidate_scores()`
and the re-scoring work of the run). The work counters leave out the constructor's first
scoring, so they count what greedy selection itself re-scored. No set is subsampled. The
files that `distclust pipeline` writes for set C are pinned too, one digest per file, as its
bytes.

A change that moves an output on purpose rewrites the file with
`PYTHONPATH=src python tests/test_digests.py --write` and says why.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from distclust import (CLUSTER_PARAMS, GlobalParams, SelectionState, StopCriterion, global_dbscan,
                       merge_streams)
from distclust.cli import main
from distclust.datagen import dataset_spec
from distclust.pipeline import MERGE_ORDERS, ExperimentConfig, run_pipeline

DIGESTS = Path(__file__).with_name("digests.json")

SETS = {
    "A": (dataset_spec("A", 20260809), CLUSTER_PARAMS["A"]),
    "B": (dataset_spec("B", 20260809), CLUSTER_PARAMS["B"]),
    "C": (dataset_spec("C", 7), CLUSTER_PARAMS["C"]),
    "dense-20k": (dataset_spec("custom", 3, n_points=20_000, n_clusters=10, noise_fraction=0.1),
                  CLUSTER_PARAMS["A"]),
    "3d": (dataset_spec("custom", 5, n_points=6000, bounds=((0.0, 100.0),) * 3), GlobalParams(3.0, 8)),
    "5d": (dataset_spec("custom", 5, n_points=3000, bounds=((0.0, 100.0),) * 5), GlobalParams(4.0, 8)),
    "1d": (dataset_spec("custom", 2, n_points=500, n_clusters=2, bounds=((0.0, 200.0),)),
           GlobalParams(1.0, 4)),
}


def digest(value) -> str:
    # repr writes every float exactly (shortest round trip), so equal digests mean equal bits.
    return hashlib.sha256(repr(value).encode()).hexdigest()


def outputs(name: str) -> dict[str, str]:
    spec, params = SETS[name]
    cfg = ExperimentConfig(dataset=spec, n_sites=4, epsilon=params.epsilon, min_pts=params.min_pts,
                           budgets=(0.2,), seed=1)
    res = run_pipeline(cfg)
    selections = []
    for k, site in enumerate(res.sites):
        state = SelectionState(site, params.epsilon, site=k)
        at_init = (state.rows_rescored, state.rescore_passes)
        records = list(state.run(StopCriterion.fraction(0.5)))
        selections.append((records, state.coverage_owner, state.candidate_scores(),
                           (state.rows_rescored - at_init[0], state.rescore_passes - at_init[1])))
    records, owners, scores, work = zip(*selections)
    full = [list(SelectionState(site, params.epsilon, site=k).run(StopCriterion.fraction(1.0)))
            for k, site in enumerate(res.sites)]
    return {
        "dataset": digest((res.dataset.ids.tolist(), res.dataset.coords.tolist())),
        "records": digest([_record(r) for r in res.merged]),
        "global": digest(sorted(res.global_labeling.labels.items())),
        "distributed": digest(sorted(res.distributed.items())),
        "reference": digest(sorted(res.reference.labels.items())),
        "report": digest(res.report.to_json()),
        "cost": digest(res.cost),
        **{f"global 100% {order}": digest(sorted(global_dbscan(merge_streams(full, order), params)
                                                 .labels.items()))
           for order in MERGE_ORDERS},
        "selection records": digest([[_record(r) for r in recs] for recs in records]),
        "selection owners": digest([sorted(own.items()) for own in owners]),
        "selection scores": digest([list(s.items()) for s in scores]),
        "selection work": digest(work),
    }


def _record(rec) -> tuple:
    return rec.site, rec.seq, rec.point.coords, rec.cov_rad, rec.cov_cnt


CLI = "cli pipeline C"
CLI_ARGS = ["pipeline", "--kind", "C", "--seed", "7", "--budget", "0.2", "--sites", "4"]


def cli_outputs(out_dir: Path) -> dict[str, str]:
    assert main([*CLI_ARGS, "--out-dir", str(out_dir)]) == 0
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", SETS)
def test_outputs_match_their_frozen_digests(name):
    want = json.loads(DIGESTS.read_text())[name]
    got = outputs(name)
    assert {k: v for k, v in got.items() if want.get(k) != v} == {}, "outputs that moved"
    assert got.keys() == want.keys()


def test_cli_files_match_their_frozen_digests(tmp_path):
    want = json.loads(DIGESTS.read_text())[CLI]
    got = cli_outputs(tmp_path)
    assert {k: v for k, v in got.items() if want.get(k) != v} == {}, "files that moved"
    assert got.keys() == want.keys()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_digests.py --write")
    with tempfile.TemporaryDirectory() as out_dir:
        frozen = {**{name: outputs(name) for name in SETS}, CLI: cli_outputs(Path(out_dir))}
    DIGESTS.write_text(json.dumps(frozen, indent=1) + "\n")
