import json

import numpy as np
import pytest

from distclust import dataset_spec, generate, partition, save_dataset_csv
from distclust import cli
from distclust.cli import main
from distclust.evaluation import transmission_cost


def run(args):
    return main([str(a) for a in args])


def test_gen_local_global_relabel_eval_chain(tmp_path, capsys):
    data = tmp_path / "data.csv"
    assert run(["gen", "--kind", "custom", "--seed", "3", "--n-points", "80",
                "--n-clusters", "2", "--noise-fraction", "0.1", "--out", data]) == 0

    # Two "sites" from the same file is enough to exercise the chain; use the
    # full file as a single site here.
    reps = tmp_path / "reps.jsonl"
    owners = tmp_path / "owners.csv"
    assert run(["local", "--in", data, "--eps", "5.0", "--budget", "0.2",
                "--site", "0", "--out", reps, "--owners", owners]) == 0
    assert reps.read_text().count("\n") == 16  # floor(0.2 * 80)

    glabels = tmp_path / "global.csv"
    assert run(["global", "--reps", reps, "--eps", "5.0", "--minpts", "4",
                "--out", glabels]) == 0

    site_labels = tmp_path / "site0.csv"
    assert run(["relabel", "--dataset", data, "--owners", owners,
                "--global-labels", glabels, "--site", "0", "--out", site_labels]) == 0

    # Self-comparison: relabeled output against a reference built from itself
    # would need a reference CSV; reuse the pipeline command for the full run.
    report = tmp_path / "report.json"
    ref = tmp_path / "ref.csv"
    from distclust import load_dataset_csv, reference_dbscan
    from distclust.clustering import GlobalParams, save_reference_labels_csv

    ds = load_dataset_csv(data)
    save_reference_labels_csv(reference_dbscan(ds, GlobalParams(5.0, 4)), ref)
    capsys.readouterr()
    assert run(["eval", "--dist", site_labels, "--ref", ref, "--out", report]) == 0
    parsed = json.loads(report.read_text())
    assert set(parsed) == {"matching_quality", "adjusted_rand", "n_objects",
                           "n_clusters_distributed", "n_clusters_reference"}
    assert parsed["n_objects"] == 80
    printed = capsys.readouterr().out.strip()
    assert json.loads(printed) == parsed


def test_local_requires_a_stop_criterion(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "custom", "--seed", "0", "--n-points", "10",
         "--n-clusters", "1", "--out", data])
    assert run(["local", "--in", data, "--eps", "1.0", "--out", tmp_path / "r.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_theta_stop_via_cli(tmp_path):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "custom", "--seed", "1", "--n-points", "40",
         "--n-clusters", "1", "--out", data])
    reps = tmp_path / "r.jsonl"
    assert run(["local", "--in", data, "--eps", "8.0", "--theta", "0.0",
                "--out", reps]) == 0
    lines = [json.loads(l) for l in reps.read_text().splitlines()]
    assert sum(r["cov_cnt"] for r in lines) == 40


def test_local_rejects_a_nan_theta(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "C", "--seed", "1", "--out", data])
    reps = tmp_path / "r.jsonl"
    assert run(["local", "--in", data, "--eps", "2.0", "--theta", "nan", "--out", reps]) == 1
    assert "error:" in capsys.readouterr().err
    assert not reps.exists()


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_local_rejects_a_non_finite_eps(tmp_path, capsys, eps):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "C", "--seed", "1", "--out", data])
    reps = tmp_path / "r.jsonl"
    assert run(["local", "--in", data, "--eps", eps, "--budget", "0.05", "--out", reps]) == 1
    assert "error:" in capsys.readouterr().err
    assert not reps.exists()


def test_local_rejects_budget_and_theta_together(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "C", "--seed", "1", "--out", data])
    reps = tmp_path / "r.jsonl"
    assert run(["local", "--in", data, "--eps", "2.0", "--budget", "0.2", "--theta", "0",
                "--out", reps]) == 1
    assert "error:" in capsys.readouterr().err
    assert not reps.exists()


def test_pipeline_command_writes_artifacts(tmp_path):
    outdir = tmp_path / "run"
    assert run(["pipeline", "--kind", "custom", "--n-points", "100", "--n-clusters", "2",
                "--noise-fraction", "0.1", "--seed", "2", "--sites", "2",
                "--eps", "4.0", "--minpts", "4", "--budget", "0.3",
                "--out-dir", outdir]) == 0
    for name in ["dataset.csv", "reps.jsonl", "global_labels.csv",
                 "site_0_labels.csv", "site_1_labels.csv",
                 "reference_labels.csv", "report.json", "cost.csv"]:
        assert (outdir / name).exists(), name
    # `eval` on the run's own labels, priced at its record count, writes the same report and cost row.
    n_reps = len((outdir / "reps.jsonl").read_text().splitlines())
    report, cost_csv = tmp_path / "report.json", tmp_path / "cost.csv"
    assert run(["eval", "--dist", outdir / "site_0_labels.csv", outdir / "site_1_labels.csv",
                "--ref", outdir / "reference_labels.csv", "--out", report,
                "--cost-out", cost_csv, "--n-reps", n_reps]) == 0
    assert report.read_bytes() == (outdir / "report.json").read_bytes()
    assert cost_csv.read_bytes() == (outdir / "cost.csv").read_bytes()


def test_sweep_command(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", "custom", "--n-points", "90", "--n-clusters", "2",
                "--seed", "4", "--eps", "4.0", "--minpts", "4",
                "--fractions", "0.1,0.3", "--sites", "2", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "fraction,n_sites,quality,bytes,speedup,cpu_time"
    assert len(lines) == 3


def test_sweep_fractions_take_counts_like_budget(tmp_path):
    # `1` is one record per site, `1.0` the whole of each site (kind C seed 1 has 1021 points).
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", "C", "--seed", "1", "--sites", "3",
                "--fractions", "1,1.0", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(row[0], row[3]) for row in rows] == [("1", "324"), ("1.0", "110268")]


@pytest.mark.parametrize("fractions", ["0.1,lots", "0.1,0", "1.5"])
def test_sweep_rejects_a_bad_fraction(tmp_path, capsys, fractions):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", "C", "--seed", "1", "--fractions", fractions, "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--sites", "--fractions"])
def test_sweep_rejects_an_empty_list(tmp_path, capsys, flag):
    out = tmp_path / "sweep.csv"
    assert run(["sweep", "--kind", "custom", "--n-points", "30", "--n-clusters", "1",
                "--seed", "4", "--eps", "4.0", "--minpts", "4", flag, "",
                "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_missing_file_is_diagnosed(tmp_path, capsys):
    assert run(["local", "--in", tmp_path / "nope.csv", "--eps", "1.0",
                "--budget", "5", "--out", tmp_path / "r.jsonl"]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_2_and_input_errors_exit_1(tmp_path, capsys):
    # argparse rejects what it cannot parse with exit 2; a value it parses but the
    # package rejects, such as a negative site, is an InputError and exits 1.
    with pytest.raises(SystemExit) as usage:
        run(["sweep", "--sites", "a", "--out", tmp_path / "s.csv"])
    assert usage.value.code == 2 and "--sites" in capsys.readouterr().err
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "custom", "--seed", "0", "--n-points", "10",
         "--n-clusters", "1", "--out", data])
    assert run(["local", "--in", data, "--eps", "1.0", "--budget", "2", "--site", "-1",
                "--out", tmp_path / "r.jsonl"]) == 1
    assert "site must be an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "r.jsonl").exists()


@pytest.mark.parametrize("command", ["pipeline", "sweep", "eval"])
def test_byte_prices_are_not_options(tmp_path, capsys, command):
    # Every run is priced at the fixed bytes of `distclust.evaluation`; a price flag is a usage error.
    out = tmp_path / "out"
    argv = {
        "pipeline": ["pipeline", "--kind", "C", "--out-dir", out],
        "sweep": ["sweep", "--kind", "C", "--out", out],
        "eval": ["eval", "--dist", tmp_path / "d.csv", "--ref", tmp_path / "r.csv", "--out", out],
    }[command]
    with pytest.raises(SystemExit) as usage:
        run(argv + ["--bytes-per-object", "64"])
    assert usage.value.code == 2 and "--bytes-per-object" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "local", "global", "relabel", "eval", "pipeline", "sweep"])
def test_every_subcommand_prints_its_help(capsys, command):
    with pytest.raises(SystemExit) as done:
        run([command, "--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: distclust {command} ")


def test_bad_budget_is_diagnosed(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "custom", "--seed", "0", "--n-points", "10",
         "--n-clusters", "1", "--out", data])
    assert run(["local", "--in", data, "--eps", "1.0", "--budget", "lots",
                "--out", tmp_path / "r.jsonl"]) == 1
    assert "budget" in capsys.readouterr().err


def test_custom_kind_requires_explicit_params(tmp_path, capsys):
    assert run(["pipeline", "--kind", "custom", "--n-points", "50", "--n-clusters", "1",
                "--seed", "0", "--budget", "0.2", "--out-dir", tmp_path / "x"]) == 1
    assert "--eps" in capsys.readouterr().err


def test_global_rejects_the_same_stream_twice(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(["gen", "--kind", "custom", "--seed", "2", "--n-points", "30",
         "--n-clusters", "1", "--out", data])
    reps = tmp_path / "s.jsonl"
    assert run(["local", "--in", data, "--eps", "3.0", "--budget", "5", "--out", reps]) == 0
    out = tmp_path / "g.csv"
    assert run(["global", "--reps", reps, reps, "--eps", "3.0", "--minpts", "3",
                "--out", out]) == 1
    assert "appears twice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", [f"{2**70},3.0,1.0", "-4,3.0,1.0", "0,3.0,1.0", "3,3.0,nan",
                                 "3,-1e308,2.0"],
                         ids=["id-2**70", "negative-id", "repeated-id", "nan-coord",
                              "overflowing-span"])
def test_local_rejects_a_bad_dataset_row(tmp_path, capsys, row):
    data = tmp_path / "d.csv"
    data.write_text("id,c0,c1\n0,1.0,2.0\n1,2.0,2.0\n2,1.5,2.5\n" + row + "\n")
    reps = tmp_path / "r.jsonl"
    assert run(["local", "--in", data, "--eps", "2.0", "--budget", "2", "--out", reps]) == 1
    assert "error:" in capsys.readouterr().err
    assert not reps.exists()


def test_global_rejects_coordinates_whose_squared_distances_overflow(tmp_path, capsys):
    reps = tmp_path / "r.jsonl"
    reps.write_text("".join(json.dumps({"site": 0, "seq": k, "coords": [x, 0.0],
                                        "cov_rad": 0.0, "cov_cnt": 1}) + "\n"
                            for k, x in enumerate([1e308, -1e308])))
    out = tmp_path / "g.csv"
    assert run(["global", "--reps", reps, "--eps", "1.0", "--minpts", "1", "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [["gen", "--out"], ["pipeline", "--budget", "0.2", "--out-dir"]],
                         ids=["gen", "pipeline"])
def test_negative_seed_is_diagnosed(tmp_path, capsys, args):
    assert run([*args, tmp_path / "out", "--kind", "C", "--seed", "-1"]) == 1
    assert "error: seed must be an integer >= 0" in capsys.readouterr().err


def test_global_rejects_a_zero_dimensional_representative(tmp_path, capsys):
    reps = tmp_path / "r.jsonl"
    reps.write_text('{"site": 0, "seq": 0, "coords": [], "cov_rad": 0.0, "cov_cnt": 1}\n')
    out = tmp_path / "g.csv"
    assert run(["global", "--reps", reps, "--eps", "1.0", "--minpts", "1", "--out", out]) == 1
    assert "bad representative record" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("counts", [[2**70], [2**62, 2**62]], ids=["2**70", "total-past-int64"])
def test_global_rejects_cov_cnt_past_int64(tmp_path, capsys, counts):
    reps = tmp_path / "r.jsonl"
    reps.write_text("".join(json.dumps({"site": 0, "seq": k, "coords": [0.1 * k, 0.0],
                                        "cov_rad": 0.0, "cov_cnt": c}) + "\n"
                            for k, c in enumerate(counts)))
    out = tmp_path / "g.csv"
    assert run(["global", "--reps", reps, "--eps", "1", "--minpts", "2", "--out", out]) == 1
    assert "error: cov_cnt" in capsys.readouterr().err
    assert not out.exists()


def test_relabel_rejects_another_sites_owners(tmp_path, capsys):
    for k, site in enumerate(partition(generate(dataset_spec("C", 1)), 2, 1)):
        save_dataset_csv(site, tmp_path / f"s{k}.csv")
        assert run(["local", "--in", tmp_path / f"s{k}.csv", "--eps", "2.0", "--budget", "0.2",
                    "--site", k, "--out", tmp_path / f"r{k}.jsonl",
                    "--owners", tmp_path / f"o{k}.csv"]) == 0
    glabels = tmp_path / "g.csv"
    assert run(["global", "--reps", tmp_path / "r0.jsonl", tmp_path / "r1.jsonl",
                "--eps", "2.0", "--minpts", "8", "--out", glabels]) == 0
    capsys.readouterr()
    out = tmp_path / "l0.csv"
    assert run(["relabel", "--dataset", tmp_path / "s0.csv", "--owners", tmp_path / "o1.csv",
                "--global-labels", glabels, "--site", "0", "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_relabel_rejects_a_negative_site(tmp_path, capsys):
    # Global labels keyed by site -1 match the site asked for; the site itself is refused.
    data, owners, glabels = tmp_path / "d.csv", tmp_path / "o.csv", tmp_path / "g.csv"
    run(["gen", "--kind", "custom", "--seed", "0", "--n-points", "10",
         "--n-clusters", "1", "--out", data])
    assert run(["local", "--in", data, "--eps", "1.0", "--budget", "2", "--out", tmp_path / "r.jsonl",
                "--owners", owners]) == 0
    glabels.write_text("site,seq,cluster_id\n-1,0,1\n-1,1,1\n")
    capsys.readouterr()
    out = tmp_path / "l.csv"
    assert run(["relabel", "--dataset", data, "--owners", owners, "--global-labels", glabels,
                "--site", "-1", "--out", out]) == 1
    assert "site must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_eval_rejects_a_cluster_id_past_int64(tmp_path, capsys):
    dist, ref = tmp_path / "d.csv", tmp_path / "r.csv"
    dist.write_text(f"id,cluster_id,owner_seq\n0,{2**63},0\n1,0,-1\n")
    ref.write_text("id,cluster_id\n0,1\n1,0\n")
    out = tmp_path / "report.json"
    assert run(["eval", "--dist", dist, "--ref", ref, "--out", out]) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def _eval_inputs(tmp_path):
    """Two site label files over ids 0..4 and a reference over the same ids."""
    dist0, dist1, ref = tmp_path / "d0.csv", tmp_path / "d1.csv", tmp_path / "r.csv"
    dist0.write_text("id,cluster_id,owner_seq\n0,1,0\n1,1,0\n2,0,-1\n")
    dist1.write_text("id,cluster_id,owner_seq\n3,2,0\n4,2,1\n")
    ref.write_text("id,cluster_id\n0,1\n1,1\n2,0\n3,2\n4,0\n")
    return dist0, dist1, ref


def test_eval_cost_out_prices_the_objects_evaluated(tmp_path):
    dist0, dist1, ref = _eval_inputs(tmp_path)
    cost_csv = tmp_path / "cost.csv"
    assert run(["eval", "--dist", dist0, dist1, "--ref", ref, "--cost-out", cost_csv,
                "--n-reps", 3]) == 0
    header, row = cost_csv.read_text().splitlines()
    assert header == "frac,bytes_distributed,bytes_full,speedup"
    frac, bytes_distributed, bytes_full, speedup = row.split(",")
    cost = transmission_cost(3, 5)
    assert float(frac) == 3 / 5
    assert (int(bytes_distributed), int(bytes_full), float(speedup)) == (
        cost.bytes_distributed, cost.bytes_full, cost.speedup)


def test_eval_cost_out_rejects_a_missing_or_excess_rep_count(tmp_path, capsys):
    dist0, dist1, ref = _eval_inputs(tmp_path)
    cost_csv, report = tmp_path / "cost.csv", tmp_path / "report.json"
    args = ["eval", "--dist", dist0, dist1, "--ref", ref, "--out", report, "--cost-out", cost_csv]
    assert run(args) == 1
    assert "--cost-out needs --n-reps" in capsys.readouterr().err
    assert run(args + ["--n-reps", 6]) == 1  # more representatives than objects evaluated
    captured = capsys.readouterr()
    assert "error:" in captured.err and not captured.out
    assert not cost_csv.exists() and not report.exists()


def test_eval_rejects_an_id_in_two_site_files(tmp_path, capsys):
    dist0, dist1, ref = _eval_inputs(tmp_path)
    dist1.write_text("id,cluster_id,owner_seq\n2,2,0\n3,2,0\n4,2,1\n")
    assert run(["eval", "--dist", dist0, dist1, "--ref", ref]) == 1
    assert "seen twice" in capsys.readouterr().err


def test_global_rejects_a_stream_selected_with_a_larger_eps(tmp_path, capsys):
    data, reps = tmp_path / "d.csv", tmp_path / "r.jsonl"
    run(["gen", "--kind", "C", "--seed", "1", "--out", data])
    assert run(["local", "--in", data, "--eps", "3", "--budget", "0.2", "--out", reps]) == 0
    first = next(r for r in map(json.loads, reps.read_text().splitlines()) if r["cov_rad"] > 2)
    capsys.readouterr()
    out = tmp_path / "g.csv"
    assert run(["global", "--reps", reps, "--eps", "2", "--minpts", "8", "--out", out]) == 1
    err = capsys.readouterr().err
    assert f"{reps}: representative (site, seq) = (0, {first['seq']}) has cov_rad" in err
    assert not out.exists()
    assert run(["global", "--reps", reps, "--eps", "3", "--minpts", "8", "--out", out]) == 0


def test_global_rejects_radii_that_span_the_data(tmp_path, capsys):
    # Every pair would be an edge of the reach graph: 2.25 M for 1500 records.
    # The first record's cov_rad equals eps, which a stream selected at eps can carry.
    coords = np.random.default_rng(5).uniform(0, 100, size=(1500, 2))
    reps = tmp_path / "r.jsonl"
    reps.write_text("".join(json.dumps({"site": 0, "seq": k, "coords": c.tolist(),
                                        "cov_rad": 2.0 if k == 0 else 1000.0, "cov_cnt": 1}) + "\n"
                            for k, c in enumerate(coords)))
    out = tmp_path / "g.csv"
    assert run(["global", "--reps", reps, "--eps", "2", "--minpts", "4", "--out", out]) == 1
    assert "(site, seq) = (0, 1) has cov_rad 1000.0 > --eps 2.0" in capsys.readouterr().err
    assert not out.exists()


def test_calls_in_one_process_share_a_parser_but_no_option_values(tmp_path):
    data = tmp_path / "d.csv"
    assert run(["gen", "--kind", "C", "--seed", "1", "--out", data]) == 0
    owners, r1, r2 = tmp_path / "o.csv", tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    calls = [
        ["local", "--in", data, "--eps", "2.0", "--theta", "0.5", "--site", "3", "--out", r1,
         "--owners", owners],
        ["local", "--in", data, "--eps", "2.0", "--budget", "0.2", "--out", r2],
        ["global", "--reps", r1, r2, "--eps", "2.0", "--minpts", "8", "--merge-order", "concat",
         "--out", tmp_path / "g1.csv"],
        ["global", "--reps", r2, "--eps", "2.0", "--minpts", "8", "--out", tmp_path / "g2.csv"],
    ]
    for k, argv in enumerate(calls):
        assert run(argv) == 0
        assert owners.exists() == (k == 0)  # only the first call asks for it
        owners.unlink(missing_ok=True)
        argv = [str(a) for a in argv]
        assert vars(cli.PARSER.parse_args(argv)) == vars(cli.build_parser().parse_args(argv))
    assert json.loads(r2.read_text().splitlines()[0])["site"] == 0


@pytest.mark.parametrize("command", ["local", "global", "relabel", "eval"])
def test_undecodable_input_is_diagnosed(tmp_path, capsys, command):
    data, reps, owners = tmp_path / "d.csv", tmp_path / "r.jsonl", tmp_path / "o.csv"
    glabels, ref = tmp_path / "g.csv", tmp_path / "ref.csv"
    assert run(["gen", "--kind", "C", "--seed", "1", "--n-points", "40", "--out", data]) == 0
    assert run(["local", "--in", data, "--eps", "2.0", "--budget", "0.2", "--out", reps,
                "--owners", owners]) == 0
    assert run(["global", "--reps", reps, "--eps", "2.0", "--minpts", "8", "--out", glabels]) == 0
    ref.write_text("id,cluster_id\n0,1\n")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"id,cluster_id,owner_seq\n0,1,\xe9\n")
    out = tmp_path / "out"
    argv = {
        "local": ["local", "--in", bad, "--eps", "2.0", "--budget", "0.2", "--out", out],
        "global": ["global", "--reps", reps, bad, "--eps", "2.0", "--minpts", "8", "--out", out],
        "relabel": ["relabel", "--dataset", data, "--owners", bad, "--global-labels", glabels,
                    "--site", "0", "--out", out],
        "eval": ["eval", "--dist", bad, "--ref", ref, "--out", out],
    }[command]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and "0xe9" in err
    assert not out.exists()
