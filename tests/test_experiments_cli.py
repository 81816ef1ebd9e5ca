import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import opuckit as ok
from opuckit import cli, experiments, operators
from opuckit.cli import build_parser, main
from opuckit.experiments import (EXPERIMENT_NAMES, ExperimentSpec, SpecError,
                                 load_thresholds, run)
from opuckit.operators import NormEstimate


def test_thresholds_load_and_cover_experiments():
    thr = load_thresholds()
    for key in ("orthonormality", "a2_scaling", "fh_growth", "entropy_limit",
                "strong_szego", "continuity", "q_algebra", "clark_duality",
                "projection_bound", "pcr_upper_trend"):
        assert key in thr
    assert thr["fit_acceptance_r2"] >= 0.98


def test_spec_validation():
    with pytest.raises(SpecError):
        ExperimentSpec(name="nonsense")
    with pytest.raises(SpecError):
        ExperimentSpec(name="fh_growth", fmt="xml")
    with pytest.raises(SpecError):
        ExperimentSpec(name="fh_growth", grid_log2=10, n_grid=(512,))
    with pytest.raises(SpecError):
        ExperimentSpec(name="fh_growth", p_grid=(0.5,))
    assert EXPERIMENT_NAMES == ("a2_scaling", "fh_growth", "entropy_limit", "strong_szego",
                                "continuity", "clark_duality", "projection_bound",
                                "pcr_upper_trend", "opuc_diagnostics")
    with pytest.raises(SpecError, match=r"n_grid.*--nmax >= 128"):
        ExperimentSpec(name="pcr_upper_trend", n_grid=(64, 91, 91))


@pytest.mark.parametrize("n_grid", [(8.5, 16.2, 30.9), (8, float("nan"), 30),
                                    (8, float("inf"), 30), ("64", "91", "128"), (True, 2, 3),
                                    (64, "128", 256)])
def test_spec_names_a_degree_that_is_no_integer(n_grid):
    with pytest.raises(SpecError, match=r"n_grid must hold integer degrees \(from the CLI: "
                                        rf"--nmax\), got n_grid = {re.escape(repr(n_grid))}$"):
        ExperimentSpec(name="fh_growth", n_grid=n_grid)
    with pytest.raises(SpecError, match=r"arcs must be one of \('dyadic', 'full'\), got 'sparse'"):
        ExperimentSpec(name="a2_scaling", arcs="sparse")


def test_cli_degree_ladder_is_the_frozen_n_grid():
    thr = load_thresholds()
    assert list(cli._degree_ladder(512)) == thr["fh_growth"]["n_grid"]
    assert list(cli._degree_ladder(512)) == thr["pcr_upper_trend"]["n_grid"]


@pytest.mark.parametrize("cmd, k", [("pcr", 128), ("projection", 91), ("steklov", 1),
                                    ("entropy", 2), ("szego", 1)])
def test_cli_nmax_hint_is_the_boundary(cmd, k):
    # the spec's "(from the CLI: --nmax >= K)" holds exactly: K builds a spec, K - 1 does not
    def spec(nmax):
        return cli.spec_from_args(build_parser().parse_args([cmd, "--nmax", str(nmax)]))

    assert spec(k).n_grid == cli._degree_ladder(k)
    with pytest.raises(SpecError, match=rf"\(from the CLI: --nmax >= {k}\)"):
        spec(k - 1)


def test_pcr_upper_trend_samples_each_weight_once(monkeypatch):
    sampled = []

    def counting(family, params, grid, normalize=True):
        sampled.append((params["beta"], normalize))
        return ok.make_weight(family, params, grid, normalize)

    monkeypatch.setattr(experiments, "make_weight", counting)
    rec = run(ExperimentSpec(name="pcr_upper_trend", grid_log2=10, n_grid=(16, 32, 64)))
    cfg = load_thresholds()["pcr_upper_trend"]
    # the calibration betas raw, then one normalized weight per t and per spot check
    assert len(sampled) == len(set(sampled)) == (len(cfg["calibration_betas"])
                                                 + len(cfg["t_grid"]) + len(cfg["spot_checks"]))
    assert sum(not normalize for _, normalize in sampled) == len(cfg["calibration_betas"])
    t_rows = [r for r in rec.rows if "t_measured" in r]
    assert [list(r) for r in t_rows] == [["family", "beta", "t_target", "t_measured", "p_star",
                                          "p_predicted", "grid_log2", "seed"]] * len(cfg["t_grid"])
    # [w]_{A_2} is scale invariant: the normalized weight gives the raw weight's t
    for r in t_rows:
        raw = ok.make_weight("fisher_hartwig", {"beta": r["beta"]}, ok.CircleGrid(10),
                             normalize=False)
        assert abs(r["t_measured"] / ok.ap_characteristic(raw, 2.0).value - 1.0) < 1e-12


def test_opuc_diagnostics_record(tmp_path):
    out = tmp_path / "diag.json"
    spec = ExperimentSpec(name="opuc_diagnostics", grid_log2=11,
                          beta=0.3, nmax=24,
                          out=str(out), fmt="json")
    rec = run(spec)
    assert rec.passed
    assert rec.exit_code == 2  # flagged: thresholds frozen at grid_log2 14
    payload = json.loads(out.read_text())
    assert payload["version"] == rec.version
    assert payload["checks"]["gram_identity"]["pass"]
    assert len(payload["rows"]) == 25


def _strict_loads(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=reject)


def test_records_are_strict_json():
    diag = run(ExperimentSpec(name="opuc_diagnostics", grid_log2=11, nmax=8))
    rows = _strict_loads(diag.to_json())["rows"]
    assert rows[-1]["abs_alpha"] is None and rows[0]["abs_alpha"] is not None
    growth = run(ExperimentSpec(name="fh_growth", grid_log2=12, beta=0.3,
                                p_grid=(6.0,), n_grid=(64, 128, 256)))
    ssr_rows = [r for r in _strict_loads(growth.to_json())["rows"] if r["n"] == -1]
    assert ssr_rows and all(r["norm"] is None for r in ssr_rows)


def test_fh_growth_record_schema(tmp_path):
    out = tmp_path / "growth.csv"
    spec = ExperimentSpec(name="fh_growth", grid_log2=12,
                          beta=0.3, p_grid=(6.0,),
                          n_grid=(64, 128, 256), out=str(out), fmt="csv")
    rec = run(spec)
    header = out.read_text().splitlines()[0].split(",")
    for col in ("family", "beta", "p", "n", "norm", "grid_log2", "seed"):
        assert col in header
    fit = rec.fits["beta=0.3,p=6.0"]
    for key in ("exponent", "r2", "predicted_exponent", "pass"):
        assert key in fit


def test_projection_bound_deterministic():
    spec = dict(name="projection_bound", grid_log2=10, n_grid=(16, 32), seed=123)
    r1 = run(ExperimentSpec(**spec))
    r2 = run(ExperimentSpec(**spec))
    assert r1.rows == r2.rows
    assert r1.checks == r2.checks


def test_runner_adds_grid_log2_and_seed_to_every_row():
    diag = run(ExperimentSpec(name="opuc_diagnostics", grid_log2=11, nmax=8, seed=5))
    assert all(r["grid_log2"] == 11 and r["seed"] == 5 for r in diag.rows)
    proj = run(ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32), seed=5))
    assert [(r["grid_log2"], r["seed"]) for r in proj.rows] == [(10, 5), (10, 5)]
    # the dual-mass refinement rows keep their own grid
    clark = run(ExperimentSpec(name="clark_duality", grid_log2=10, seed=5))
    assert all(r["seed"] == 5 for r in clark.rows)
    assert [r["grid_log2"] for r in clark.rows if r["grid_log2"] != 10] == [6, 8]


def test_aborted_record_rows_carry_shared_fields(tmp_path, monkeypatch):
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("second cell fails")
        return NormEstimate(1.0, "power_method_p")

    monkeypatch.setattr(experiments, "projection_norm_probe", fail_second)
    out = tmp_path / "partial.json"
    with pytest.raises(ValueError, match="second cell"):
        run(ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32), seed=3,
                           out=str(out)))
    rows = json.loads(out.read_text())["rows"]
    assert [(r["grid_log2"], r["seed"]) for r in rows] == [(10, 3)]


def test_entropy_runner_small():
    rec = run(ExperimentSpec(name="entropy_limit", grid_log2=11,
                             beta=0.2, n_grid=(32, 64, 128)))
    assert rec.checks["constant_zero"]["pass"]
    assert rec.checks["fh_gap[beta=0.2]"]["pass"]


def test_strong_szego_runner_small():
    rec = run(ExperimentSpec(name="strong_szego", grid_log2=11, n_grid=(32, 64, 128)))
    assert rec.checks["fh_decreasing"]["pass"]
    assert rec.checks["bs_exact"]["pass"]


def test_strong_szego_bs_row_records_the_degree_used():
    rec = run(ExperimentSpec(name="strong_szego", grid_log2=10, n_grid=(2, 4)))
    assert [r["n"] for r in rec.rows if r["family"] == "bernstein_szego"] == [4]


def test_cli_exit_codes(tmp_path, capsys):
    # 0: clean pass at the calibrated grid (cheap subcommand)
    assert main(["opuc", "--nmax", "16"]) == 0
    # 2: flagged (off-calibration grid)
    assert main(["opuc", "--grid-log2", "11", "--nmax", "16"]) == 2
    # 3: failed threshold (the blow-up band is out of reach at a coarse grid)
    assert main(["a2", "--grid-log2", "10"]) == 3
    # 4: argparse-level input error
    assert main(["steklov", "--p", "abc"]) == 4
    # a single-degree n-grid (--nmax below 64) runs to a verdict
    assert main(["steklov", "--nmax", "48"]) == 3
    # 4: precondition violation (n-grid beyond N/4)
    assert main(["steklov", "--grid-log2", "10", "--nmax", "512"]) == 4
    capsys.readouterr()


def test_partial_record_on_cell_failure(tmp_path):
    out = tmp_path / "partial.json"
    spec = ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32),
                          beta=-0.5, out=str(out), fmt="json")
    with pytest.raises(ValueError):
        run(spec)
    payload = json.loads(out.read_text())
    assert payload["checks"]["completed"]["pass"] is False
    assert any("aborted" in f for f in payload["flags"])


def test_cli_writes_record(tmp_path):
    out = tmp_path / "rec.json"
    code = main(["szego", "--grid-log2", "11", "--nmax", "128",
                 "--out", str(out), "--format", "json"])
    assert code in (0, 2)
    payload = json.loads(out.read_text())
    assert payload["name"] == "strong_szego"
    assert payload["rows"]


def test_cli_unknown_family_is_input_error():
    assert main(["opuc", "--family", "jacobi"]) == 4


def test_cli_names_the_missing_weight_parameter(capsys):
    assert main(["opuc", "--family", "user"]) == 4
    err = capsys.readouterr().err
    assert "'user'" in err and "'values'" in err


def test_cli_rejects_short_pcr_grid_before_work(capsys):
    for nmax in ("64", "91"):
        assert main(["pcr", "--nmax", nmax]) == 4
        err = capsys.readouterr().err
        assert "n_grid" in err and "--nmax >= 128" in err


def test_cli_rejects_clark_grid_below_10_before_work(monkeypatch, capsys):
    # the refinement trend would otherwise fail on the m - 4 grid, one the user never named
    def no_run(spec):
        raise AssertionError("a clark spec below grid_log2 10 must stop before any work")

    monkeypatch.setattr(cli, "run", no_run)
    assert main(["clark", "--grid-log2", "9"]) == 4
    err = capsys.readouterr().err
    assert "clark_duality" in err and "grid_log2 >= 10, got 9" in err
    ExperimentSpec(name="clark_duality", grid_log2=10)


def test_cli_rejects_single_degree_projection_before_work(monkeypatch, capsys):
    # one degree would pass max/min = 1 without comparing anything
    def no_run(spec):
        raise AssertionError("a single-degree projection spec must stop before any work")

    monkeypatch.setattr(cli, "run", no_run)
    for nmax in ("48", "64"):
        assert main(["projection", "--nmax", nmax]) == 4
        err = capsys.readouterr().err
        assert "n_grid" in err and "--nmax >= 91" in err
    with pytest.raises(SpecError, match="n_grid"):
        ExperimentSpec(name="projection_bound", n_grid=(64, 64))


def test_cli_bad_grid_log2_names_the_value(capsys):
    assert main(["a2", "--grid-log2", "-1"]) == 4
    assert "log2_size must be an integer in [6, 24], got -1" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [-1, 1.5, True, "x"])
def test_spec_names_a_seed_that_is_no_nonnegative_integer(seed):
    with pytest.raises(SpecError, match=re.escape("seed must be a non-negative integer (from the "
                                                  f"CLI: --seed), got seed = {seed!r}")):
        ExperimentSpec(name="a2_scaling", seed=seed)


def test_numpy_integer_seed_is_written_as_an_integer():
    rec = run(ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32),
                             seed=np.int64(3)))
    payload = json.loads(rec.to_json())
    assert payload["seed"] == 3 and type(payload["seed"]) is int
    assert type(payload["spec"]["seed"]) is int
    rows = rec.to_csv().splitlines()
    seeds = {line.split(",")[rows[0].split(",").index("seed")] for line in rows[1:]}
    assert seeds == {"3"}


def test_cli_negative_seed_exits_4(capsys):
    assert main(["a2", "--seed", "-3"]) == 4
    assert "got seed = -3" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needs", [
    (["steklov", "--nmax", "0"], "--nmax >= 1"),  # log n of n = 0
    (["entropy", "--nmax", "0"], "--nmax >= 2"),  # no degree for the n >= 2 gap
    (["entropy", "--nmax", "1"], "--nmax >= 2"),
    (["szego", "--nmax", "0"], "--nmax >= 1"),  # the Bernstein-Szego row needs degree >= 1
])
def test_cli_rejects_degrees_the_fits_cannot_take(argv, needs, capfd):
    assert main(argv) == 4
    err = capfd.readouterr().err  # file-descriptor level: LAPACK writes there itself
    assert "n_grid" in err and needs in err
    assert "On entry to" not in err and "LAPACK" not in err
    with pytest.raises(SpecError, match="n >= 1"):
        ExperimentSpec(name="pcr_upper_trend", n_grid=(0, 64, 128))


_W12 = ok.make_weight("fisher_hartwig", {"beta": 0.3}, ok.CircleGrid(12))
_C12 = ok.make_weight("constant", {}, ok.CircleGrid(12))
_COS12 = ok.GridFunction(_C12.grid, np.cos(_C12.grid.nodes))


def _continuity12(deltas, band=16):
    return ok.continuity_experiment(_C12, _COS12, 2.0, deltas, band=band)


@pytest.mark.parametrize("call, named", [
    (lambda: ok.weighted_riesz(_W12, 0.5), "p = 0.5"),
    (lambda: ok.build_Q(_W12, 1.0, 8), "p = 1.0"),
    (lambda: ok.build_Q(_W12, 3.0, 1024), "n = 1024 with N = 4096"),
    (lambda: ok.weighted_lp_norm(_W12.values, _W12, 0.25), "p = 0.25"),
    (lambda: ok.projection_norm_probe(ok.system_from_weight(_W12, 4), 4, float("inf")),
     "p = inf"),
    (lambda: ok.projection_norm_probe(ok.system_from_weight(_W12, 4), 4, float("nan")),
     "p = nan"),
    (lambda: ExperimentSpec(name="fh_growth", p_grid=(3.0, 0.75)), "p_grid = (3.0, 0.75)"),
    (lambda: ExperimentSpec(name="fh_growth", p_grid=(3.0, float("nan"))), "p_grid = (3.0, nan)"),
    (lambda: ok.ap_characteristic(_W12, float("nan")), "A_p requires a finite p > 1, got p = nan"),
    (lambda: ok.ap_characteristic(_W12, float("inf")), "A_p requires a finite p > 1, got p = inf"),
    # an exponent or a band given as a bool or a string is named, not read as a number
    (lambda: ok.weighted_riesz(_W12, "3"), "needs p in (1, inf), got p = '3'"),
    (lambda: ok.projection_norm_probe(ok.system_from_weight(_W12, 4), 4, "3"), "got p = '3'"),
    (lambda: ok.weighted_lp_norm(_W12.values, _W12, True), "p >= 1 required, got p = True"),
    (lambda: ok.ap_characteristic(_W12, "3"), "A_p requires a finite p > 1, got p = '3'"),
    (lambda: ok.strong_szego_error(ok.system_from_weight(_W12, 4), ok.szego_function(_W12), 4,
                                   True), "strong_szego_error needs p >= 2, got p = True"),
    (lambda: ok.build_Q(_W12, 2.0, True), "0 <= n < N/4, got n = True with N = 4096"),
    (lambda: ok.build_Q(_W12, 2.0, -1), "0 <= n < N/4, got n = -1 with N = 4096"),
    # a grid size or a degree must be an integer: a float, even an integral one, is named
    (lambda: ok.CircleGrid(10.5), "log2_size must be an integer in [6, 24], got 10.5"),
    (lambda: ok.CircleGrid(10.0), "log2_size must be an integer in [6, 24], got 10.0"),
    (lambda: ok.CircleGrid(np.float64(10)),
     "log2_size must be an integer in [6, 24], got np.float64(10.0)"),
    (lambda: ok.CircleGrid(True), "log2_size must be an integer in [6, 24], got True"),
    (lambda: ExperimentSpec(name="a2_scaling", grid_log2=10.5),
     "log2_size must be an integer in [6, 24], got 10.5"),
    (lambda: ok.system_from_weight(_W12, 1.5),
     "nmax must be nonnegative and an integer, got nmax = 1.5"),
    (lambda: ok.szego_recursion(_W12.moments(4), 2.5), "got nmax = 2.5"),
    # the degree, not the moment order it implies, is named
    (lambda: ok.system_from_weight(_W12, 2048), "nmax must stay below N/2 = 2048, got nmax = 2048"),
    (lambda: ok.weighted_lp_norm(_W12.values, _W12, float("inf")),
     "finite p >= 1 required, got p = inf"),
    (lambda: ExperimentSpec(name="fh_growth", p_grid=(float("inf"),)), "p_grid = (inf,)"),
    # a user-built probe
    (lambda: ok.OperatorProbe(_W12.grid, lambda x: x, lambda x: x, 8, 1.0, "identity"),
     "probe 'identity' needs p in (1, inf), got p = 1.0"),
    (lambda: ok.OperatorProbe(_W12.grid, lambda x: x, lambda x: x, 8, 0.5, "identity"),
     "probe 'identity' needs p in (1, inf), got p = 0.5"),
    # continuity fits a slope over distinct positive deltas on a band below Nyquist
    (lambda: _continuity12([]), "at least two distinct deltas, got deltas = []"),
    (lambda: _continuity12([0.1]), "at least two distinct deltas, got deltas = [0.1]"),
    (lambda: _continuity12([0.1, 0.1]), "got deltas = [0.1, 0.1]"),
    (lambda: _continuity12([float("nan"), 0.1]), "finite and > 0, got deltas = [nan, 0.1]"),
    (lambda: _continuity12([float("inf"), 0.1]), "finite and > 0, got deltas = [inf, 0.1]"),
    (lambda: _continuity12([0.0, 0.1]), "finite and > 0, got deltas = [0.0, 0.1]"),
    (lambda: _continuity12([0.1, 0.01], band=-1), "0 <= band < N/2 = 2048, got band = -1"),
    (lambda: _continuity12([0.1, 0.01], band=2048), "got band = 2048"),
    (lambda: _continuity12([0.1, 0.01], band=16.0), "got band = 16.0"),
    (lambda: _continuity12([0.1, 0.01], band=True), "got band = True"),
])
def test_bad_exponent_errors_name_the_value(call, named):
    with pytest.raises(ValueError) as exc:
        call()
    assert named in str(exc.value)


def test_projection_bound_rows_carry_convergence():
    # p = 2.1 sits next to the degenerate p = 2 and stops at the cap; p = 4 converges
    near = run(ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32)))
    assert [(r["converged"], r["iterations"]) for r in near.rows] == [(False, 20)] * 2
    # no convergence flag: criterion 11 asserts a flag-free record at m = 14
    assert near.passed and near.flags == ["thresholds were frozen at grid_log2=14; "
                                          "this run used grid_log2=10"]
    far = run(ExperimentSpec(name="projection_bound", grid_log2=12, n_grid=(16, 32),
                             p_grid=(4.0,)))
    assert all(r["converged"] and r["iterations"] < 20 for r in far.rows)
    assert all("trials" not in r for r in far.rows)


def test_csv_round_trip(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(["entropy", "--grid-log2", "11", "--nmax", "64",
                 "--out", str(out), "--format", "csv"])
    assert code in (0, 2)
    rows = out.read_text().splitlines()
    assert len(rows) > 2 and rows[0].startswith("family")


# the options each subcommand reads besides --grid-log2, --seed, --out and --format
SUBCOMMAND_OPTIONS = {
    "a2": {"--arcs"},
    "opuc": {"--family", "--beta", "--a", "--nmax"},
    "entropy": {"--beta", "--nmax"},
    "szego": {"--beta", "--nmax"},
    "steklov": {"--beta", "--p", "--nmax"},
    "continuity": set(),
    "clark": set(),
    "projection": {"--beta", "--p", "--nmax"},
    "pcr": {"--p", "--nmax"},
}
OPTION_VALUES = {"--arcs": "full", "--family": "constant", "--beta": "0.3", "--a": "0.5",
                 "--nmax": "64", "--p": "3"}


def test_cli_registers_only_the_options_each_subcommand_reads():
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.dest == "command").choices
    pairs = 0
    for cmd, sp in subparsers.items():
        options = {s for a in sp._actions for s in a.option_strings if s.startswith("--")}
        assert options - {"--help"} == SUBCOMMAND_OPTIONS[cmd] | {"--grid-log2", "--seed",
                                                                   "--out", "--format"}
        pairs += len(options - {"--help"})
    assert pairs == 53


def test_cli_option_outside_the_table_exits_4(monkeypatch, capsys):
    def no_run(spec):
        raise AssertionError("an ignored option must stop the CLI before any experiment")

    monkeypatch.setattr(cli, "run", no_run)
    for cmd, reads in SUBCOMMAND_OPTIONS.items():
        for opt, value in OPTION_VALUES.items():
            if opt in reads:
                continue
            assert main([cmd, opt, value]) == 4, (cmd, opt)
            err = capsys.readouterr().err
            assert f"unrecognized arguments: {opt} {value}" in err, (cmd, opt, err)


# the spec input each option sets: --nmax sets opuc's nmax and every other n-grid
OPTION_INPUTS = {"--arcs": "arcs", "--family": "family", "--beta": "beta", "--a": "a",
                 "--p": "p_grid", "--nmax": "n_grid"}
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("cmd", SUBCOMMAND_OPTIONS)
def test_record_spec_echoes_only_the_inputs_read(cmd):
    reads = {OPTION_INPUTS[opt] for opt in SUBCOMMAND_OPTIONS[cmd]}
    if cmd == "opuc":
        reads = reads - {"n_grid"} | {"nmax"}
    want = {"name", "grid_log2", "seed"} | reads
    spec = cli.spec_from_args(build_parser().parse_args([cmd]))
    assert set(spec.echo()) == want
    # the golden copy of the default record, which the acceptance tests compare
    assert set(json.loads((GOLDEN / f"{spec.name}.json").read_text())["spec"]) == want


def test_unread_input_is_accepted_and_not_echoed():
    spec = ExperimentSpec(name="continuity", n_grid=(64, 91), beta=0.3)
    assert spec.echo() == {"name": "continuity", "grid_log2": 14, "seed": 0}


def test_misspelled_input_is_named():
    with pytest.raises(TypeError, match="betta"):
        ExperimentSpec(name="entropy_limit", betta=0.3)


@pytest.mark.parametrize("family, params", [("constant", {}), ("fisher_hartwig", {"beta": 0.3}),
                                            ("bernstein_szego", {"a": 0.5})])
def test_opuc_rows_carry_only_their_family_parameter(family, params, tmp_path):
    out = tmp_path / "diag.json"
    assert main(["opuc", "--family", family, "--beta", "0.3", "--grid-log2", "10",
                 "--nmax", "4", "--out", str(out)]) == 2
    rows = json.loads(out.read_text())["rows"]
    assert [{k: r[k] for k in r if k not in ("n", "abs_alpha", "kappa", "grid_log2", "seed")}
            for r in rows] == [{"family": family, **params}] * 5


@pytest.mark.parametrize("argv, named", [
    (["steklov", "--beta", "nan", "--p", "6", "--grid-log2", "10", "--nmax", "128"],
     "beta must be finite (from the CLI: --beta), got beta = nan"),
    (["opuc", "--a", "inf", "--grid-log2", "10"], "a must be finite (from the CLI: --a), got a = inf"),
    (["opuc", "--nmax", "600", "--grid-log2", "10"],
     "nmax must be an integer with 0 <= nmax < N/2 = 512 (from the CLI: --nmax), got nmax = 600"),
    (["opuc", "--nmax", "-1", "--grid-log2", "10"], "got nmax = -1"),
    (["steklov", "--beta", "0.3", "--p", "3,nan", "--grid-log2", "10", "--nmax", "128"],
     "all p must be finite and exceed 1 (from the CLI: --p), got p_grid = (3.0, nan)"),
])
def test_cli_bad_input_names_field_and_flag(argv, named, monkeypatch, capsys, tmp_path):
    def no_run(spec):
        raise AssertionError("a bad input must stop the CLI before any experiment")

    monkeypatch.setattr(cli, "run", no_run)
    assert main([*argv, "--out", str(tmp_path / "rec.json")]) == 4
    assert named in capsys.readouterr().err
    assert not (tmp_path / "rec.json").exists()


def test_spec_takes_nmax_below_half_the_grid_and_finite_beta_only():
    ExperimentSpec(name="opuc_diagnostics", grid_log2=10, nmax=511)
    for nmax in (512, 4.5, float("nan"), True, "8"):
        with pytest.raises(SpecError, match=f"N/2 = 512 .*got nmax = {re.escape(repr(nmax))}$"):
            ExperimentSpec(name="opuc_diagnostics", grid_log2=10, nmax=nmax)
    with pytest.raises(SpecError, match="beta = -inf"):
        ExperimentSpec(name="entropy_limit", beta=float("-inf"))


def test_spec_names_p_grid_and_the_n_grid_bound():
    with pytest.raises(SpecError, match=re.escape("(from the CLI: --p), got p_grid = ('3',)")):
        ExperimentSpec(name="fh_growth", beta=0.3, p_grid=("3",))
    with pytest.raises(SpecError, match=re.escape("n-grid max must stay below N/4 = 256 (from the "
                                                  "CLI: --nmax), got max(n_grid) = 300")):
        ExperimentSpec(name="fh_growth", grid_log2=10, n_grid=(8, 300))


@pytest.mark.parametrize("key, value", [("beta", "0.2"), ("a", "0.5"), ("beta", "None"),
                                        ("a", "nan"), ("beta", [0.2]), ("a", np.array(None)),
                                        ("beta", True)])
def test_spec_names_a_non_numeric_parameter(key, value):
    # strings, None-like objects and bools stop at the field, before numpy's isfinite
    with pytest.raises(SpecError, match=rf"^{key} must be a real number or None \(from the "
                                        rf"CLI: --{key}\), got {key} = .* of type "
                                        rf"{type(value).__name__}$"):
        ExperimentSpec(name="entropy_limit", **{key: value})
    # numpy scalars and integers are real numbers
    ExperimentSpec(name="entropy_limit", **{key: np.float64(0.25)})
    ExperimentSpec(name="entropy_limit", **{key: 0})


def test_cli_projection_honours_p(tmp_path):
    out = tmp_path / "proj.json"
    main(["projection", "--grid-log2", "10", "--nmax", "91", "--p", "3", "--out", str(out)])
    payload = json.loads(out.read_text())
    assert payload["spec"]["p_grid"] == [3.0]
    assert payload["rows"] and all(r["p"] == 3.0 for r in payload["rows"])
    with pytest.raises(SpecError, match="--p"):
        ExperimentSpec(name="projection_bound", p_grid=(2.1, 3.0))


@pytest.mark.parametrize("argv", [["steklov", "--beta", "0.3"], ["steklov", "--p", "6"]])
def test_cli_steklov_needs_beta_and_p_together(argv, capsys):
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert "--beta" in err and "--p" in err


def test_fh_growth_flags_fits_on_fewer_than_three_degrees():
    rec = run(ExperimentSpec(name="fh_growth", grid_log2=10, n_grid=(64, 91)))
    cfg = load_thresholds()["fh_growth"]
    pairs, (cb, cp) = cfg["pairs"], cfg["critical_pair"]
    undetermined = [f for f in rec.flags if "three distinct degrees" in f]
    # one flag per fitted pair, then one for the critical pair's log/n^eps comparison,
    # whose two-point SSRs are all roundoff
    assert len(undetermined) == len(pairs) + 1
    for (beta, p), flag in zip(pairs, undetermined):
        assert flag.startswith(f"beta={beta},p={p}: the c1 + c2 n^e fit") and "(64, 91)" in flag
    assert undetermined[-1].startswith(f"beta={cb},p={cp}: the log/n^eps comparison")
    assert "(64, 91)" in undetermined[-1]
    full = run(ExperimentSpec(name="fh_growth", grid_log2=10, n_grid=(64, 91, 128)))
    assert not any("three distinct degrees" in f for f in full.flags)


def test_unconverged_continuity_cell_is_flagged(monkeypatch):
    # negative control: with one iteration no p != 2 cell converges
    monkeypatch.setattr(operators, "_POWER_STEPS", 1)
    rec = run(ExperimentSpec(name="continuity", grid_log2=10))
    unconverged = [r for r in rec.rows if not r["converged"]]
    assert {(r["p"], r["delta"]) for r in unconverged} == {(2.5, 0.1), (2.5, 0.001),
                                                          (3.0, 0.1), (3.0, 0.001)}
    flags = [f for f in rec.flags if "not converged" in f]
    assert flags == [f"power method not converged after 1 iterations: f=cos, "
                     f"p={r['p']}, delta={r['delta']}" for r in unconverged]


def test_continuity_rows_do_not_depend_on_the_seed():
    # every cell, p != 2 included, is deterministic: the seed is only echoed
    rows = [run(ExperimentSpec(name="continuity", grid_log2=10, seed=s)).rows for s in (1, 7)]
    assert [r["seed"] for r in rows[0]] == [1] * len(rows[0])
    assert [r["seed"] for r in rows[1]] == [7] * len(rows[1])
    strip = [[{k: v for k, v in r.items() if k != "seed"} for r in rs] for rs in rows]
    assert strip[0] == strip[1]


def test_import_loads_no_scipy_integrate():
    # every opuckit process pays for its imports: scipy.integrate alone took about
    # 0.2 s and 23 MB, and nothing in the package needs it
    src = str(Path(ok.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys, opuckit; "
            "print([m for m in sys.modules if m.split('.')[:2] == ['scipy', 'integrate']])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"
