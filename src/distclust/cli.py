"""Command-line front end.

Subcommands mirror the pipeline stages: gen, local, global, relabel, eval,
plus the all-in-one pipeline and sweep. Every command exits 0 on success and
nonzero with a diagnostic on stderr otherwise; all randomness sits behind
--seed.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .clustering import (
    GlobalParams,
    global_dbscan,
    load_global_labels_csv,
    load_reference_labels_csv,
    save_global_labels_csv,
    save_reference_labels_csv,
)
from .datagen import CLUSTER_PARAMS, DatasetSpec, dataset_spec, generate
from .errors import DistClustError, InputError
from .evaluation import evaluate, write_cost_csv
from .geometry import load_dataset_csv, save_dataset_csv
from .pipeline import (MERGE_ORDERS, ExperimentConfig, budget_to_stop, merge_streams, run_pipeline,
                       sweep, write_sweep_csv)
from .relabel import (
    load_local_labels_csv,
    load_owners_csv,
    relabel_site,
    save_local_labels_csv,
    save_owners_csv,
)
from .representatives import (
    SelectionState,
    StopCriterion,
    read_records_jsonl,
    write_records_jsonl,
)


def _parse_budget(text: str) -> float | int:
    try:
        if "." in text or "e" in text.lower():
            return float(text)
        return int(text)
    except ValueError:
        raise InputError(f"bad budget {text!r}: expected a fraction like 0.05 or a count like 25")


def _parse_ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _spec_from_args(args) -> DatasetSpec:
    overrides = {}
    if args.n_points is not None:
        overrides["n_points"] = args.n_points
    if args.n_clusters is not None:
        overrides["n_clusters"] = args.n_clusters
    if args.noise_fraction is not None:
        overrides["noise_fraction"] = args.noise_fraction
    return dataset_spec(args.kind, args.seed, **overrides)


def _params_from_args(args) -> GlobalParams:
    defaults = CLUSTER_PARAMS.get(args.kind)
    eps = args.eps if args.eps is not None else (defaults.epsilon if defaults else None)
    minpts = args.minpts if args.minpts is not None else (defaults.min_pts if defaults else None)
    if eps is None or minpts is None:
        raise InputError(f"--eps and --minpts are required for kind {args.kind!r}")
    return GlobalParams(eps, minpts)


def _config_from_args(args, n_sites: int, budgets: tuple) -> ExperimentConfig:
    spec = _spec_from_args(args)
    params = _params_from_args(args)
    return ExperimentConfig(
        dataset=spec, n_sites=n_sites, epsilon=params.epsilon, min_pts=params.min_pts,
        budgets=budgets, seed=args.seed, merge_order=args.merge_order, concurrent=args.concurrent,
    )


def _add_dataset_args(p):
    p.add_argument("--kind", default="A", help="dataset kind: A, B, C or custom")
    p.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    p.add_argument("--n-points", type=int, default=None)
    p.add_argument("--n-clusters", type=int, default=None)
    p.add_argument("--noise-fraction", type=float, default=None)


def _add_run_args(p):
    """The dataset, clustering and run options of `pipeline` and `sweep`."""
    _add_dataset_args(p)
    p.add_argument("--eps", type=float, default=None,
                   help="epsilon range (default: frozen value for the kind)")
    p.add_argument("--minpts", type=int, default=None,
                   help="MinPts threshold (default: frozen value for the kind)")
    p.add_argument("--merge-order", choices=list(MERGE_ORDERS), default=MERGE_ORDERS[0])
    p.add_argument("--concurrent", action="store_true", help="run sites on worker processes")


def cmd_gen(args) -> int:
    ds = generate(_spec_from_args(args))
    save_dataset_csv(ds, args.out)
    print(f"wrote {len(ds)} points to {args.out}")
    return 0


def cmd_local(args) -> int:
    ds = load_dataset_csv(args.infile)
    if (args.budget is None) == (args.theta is None):
        raise InputError("exactly one of --budget or --theta is required")
    if args.theta is not None:
        stop = StopCriterion.error_bound(args.theta)
    else:
        stop = budget_to_stop(_parse_budget(args.budget))
    state = SelectionState(ds, args.eps, site=args.site)
    n = write_records_jsonl(state.run(stop), args.out)
    if args.owners:
        save_owners_csv(state.coverage_owner, args.owners)
    print(f"site {args.site}: {n} representatives -> {args.out}")
    return 0


def cmd_global(args) -> int:
    params = GlobalParams(args.eps, args.minpts)
    streams = [read_records_jsonl(path) for path in args.reps]
    for path, records in zip(args.reps, streams):
        # A stream selected at this epsilon has cov_rad <= epsilon; wider ones could make every pair an edge.
        for rec in records:
            if rec.cov_rad > params.epsilon:
                raise InputError(f"{path}: representative (site, seq) = {rec.key} has cov_rad "
                                 f"{rec.cov_rad} > --eps {params.epsilon}")
    merged = merge_streams(streams, args.merge_order)
    labeling = global_dbscan(merged, params)
    save_global_labels_csv(labeling, args.out)
    print(f"{len(merged)} representatives -> {labeling.n_clusters} clusters -> {args.out}")
    return 0


def cmd_relabel(args) -> int:
    ds = load_dataset_csv(args.dataset)
    owners = load_owners_csv(args.owners)
    global_labels = load_global_labels_csv(args.global_labels)
    labeling = relabel_site(ds.ids.tolist(), owners, global_labels, args.site)
    save_local_labels_csv(labeling, args.out)
    print(f"site {args.site}: labeled {len(labeling.labels)} objects -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    if args.cost_out and args.n_reps is None:
        raise InputError("--cost-out needs --n-reps")
    distributed: dict[int, int] = {}
    for path in args.dist:
        part = load_local_labels_csv(path)
        overlap = distributed.keys() & part.keys()
        if overlap:
            raise InputError(f"{path}: object ids seen twice, e.g. {next(iter(overlap))}")
        distributed.update(part)
    reference = load_reference_labels_csv(args.ref)
    report = evaluate(distributed, reference.labels)
    if args.cost_out:  # before any other output, so a bad --n-reps writes nothing
        write_cost_csv(args.n_reps, report.n_objects, args.cost_out)
    line = report.to_json()
    if args.out:
        Path(args.out).write_text(line + "\n")
    print(line)
    return 0


def cmd_pipeline(args) -> int:
    result = run_pipeline(_config_from_args(args, args.sites, (_parse_budget(args.budget),)))
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_dataset_csv(result.dataset, outdir / "dataset.csv")
    write_records_jsonl(result.merged, outdir / "reps.jsonl")
    save_global_labels_csv(result.global_labeling, outdir / "global_labels.csv")
    for site, labeling in enumerate(result.local_labelings):
        save_local_labels_csv(labeling, outdir / f"site_{site}_labels.csv")
    save_reference_labels_csv(result.reference, outdir / "reference_labels.csv")
    (outdir / "report.json").write_text(result.report.to_json() + "\n")
    write_cost_csv(len(result.merged), len(result.dataset), outdir / "cost.csv")
    print(result.report.to_json())
    return 0


def cmd_sweep(args) -> int:
    if not args.sites:
        raise InputError("--sites needs at least one site count")
    budgets = tuple(_parse_budget(v) for v in args.fractions.split(",") if v)
    rows = sweep(_config_from_args(args, args.sites[0], budgets), site_counts=args.sites)
    write_sweep_csv(rows, args.out)
    print(f"{len(rows)} sweep rows -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="distclust",
                                     description="distributed density-based clustering")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    _add_dataset_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("local", help="select one site's representatives")
    p.add_argument("--in", dest="infile", required=True, help="site dataset CSV")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--budget", default=None, help="fraction (0.05) or count (25)")
    p.add_argument("--theta", type=float, default=None,
                   help="error bound: stop when the best remaining quality <= theta")
    p.add_argument("--site", type=int, default=0)
    p.add_argument("--out", required=True, help="representative stream (JSONL)")
    p.add_argument("--owners", default=None, help="also write the site-local ownership CSV")
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("global", help="cluster merged representative streams")
    p.add_argument("--reps", nargs="+", required=True, help="JSONL stream files")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--minpts", type=int, required=True)
    p.add_argument("--merge-order", choices=list(MERGE_ORDERS), default=MERGE_ORDERS[0])
    p.add_argument("--out", required=True, help="global labels CSV")
    p.set_defaults(func=cmd_global)

    p = sub.add_parser("relabel", help="label one site's objects from the global result")
    p.add_argument("--dataset", required=True, help="site dataset CSV")
    p.add_argument("--owners", required=True, help="ownership CSV from `local --owners`")
    p.add_argument("--global-labels", required=True)
    p.add_argument("--site", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_relabel)

    p = sub.add_parser("eval", help="score distributed labels against a reference")
    p.add_argument("--dist", nargs="+", required=True, help="per-site label CSVs")
    p.add_argument("--ref", required=True, help="reference labels CSV")
    p.add_argument("--out", default=None, help="write the report JSON here too")
    p.add_argument("--cost-out", default=None)
    p.add_argument("--n-reps", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("pipeline", help="full distributed run on a generated dataset")
    _add_run_args(p)
    p.add_argument("--sites", type=int, default=4)
    p.add_argument("--budget", default="0.05")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("sweep", help="grid of pipeline runs, CSV output")
    _add_run_args(p)
    p.add_argument("--fractions", default="0.01,0.02,0.05,0.1,0.2",
                   help="comma list of per-site budgets, each a fraction (0.05) or a count (25)")
    p.add_argument("--sites", type=_parse_ints, default=(4,), help="comma list of site counts")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


PARSER = build_parser()  # one per process; each call parses into a fresh namespace


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (DistClustError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
