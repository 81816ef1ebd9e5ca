import json

import pytest

from opuckit import cli, experiments, operators
from opuckit.cli import build_parser, main
from opuckit.experiments import (EXPERIMENT_NAMES, ExperimentSpec, SpecError, cell_seed,
                                 load_thresholds, run)


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


def test_opuc_diagnostics_record(tmp_path):
    out = tmp_path / "diag.json"
    spec = ExperimentSpec(name="opuc_diagnostics", grid_log2=11,
                          params={"beta": 0.3, "nmax": 24},
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
    diag = run(ExperimentSpec(name="opuc_diagnostics", grid_log2=11, params={"nmax": 8}))
    rows = _strict_loads(diag.to_json())["rows"]
    assert rows[-1]["abs_alpha"] is None and rows[0]["abs_alpha"] is not None
    growth = run(ExperimentSpec(name="fh_growth", grid_log2=12, params={"beta": 0.3},
                                p_grid=(6.0,), n_grid=(64, 128, 256)))
    ssr_rows = [r for r in _strict_loads(growth.to_json())["rows"] if r["n"] == -1]
    assert ssr_rows and all(r["norm"] is None for r in ssr_rows)


def test_fh_growth_record_schema(tmp_path):
    out = tmp_path / "growth.csv"
    spec = ExperimentSpec(name="fh_growth", grid_log2=12,
                          params={"beta": 0.3}, p_grid=(6.0,),
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
    diag = run(ExperimentSpec(name="opuc_diagnostics", grid_log2=11, params={"nmax": 8}, seed=5))
    assert all(r["grid_log2"] == 11 and r["seed"] == 5 for r in diag.rows)
    # cells keep their own seeds
    proj = run(ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32), seed=5))
    assert [r["seed"] for r in proj.rows] == [cell_seed(5, 0), cell_seed(5, 1)]
    assert all(r["grid_log2"] == 10 for r in proj.rows)
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
        return 1.0

    monkeypatch.setattr(experiments, "projection_norm_probe", fail_second)
    out = tmp_path / "partial.json"
    with pytest.raises(ValueError, match="second cell"):
        run(ExperimentSpec(name="projection_bound", grid_log2=10, n_grid=(16, 32), seed=3,
                           out=str(out)))
    rows = json.loads(out.read_text())["rows"]
    assert [(r["grid_log2"], r["seed"]) for r in rows] == [(10, cell_seed(3, 0))]


def test_entropy_runner_small():
    rec = run(ExperimentSpec(name="entropy_limit", grid_log2=11,
                             params={"beta": 0.2}, n_grid=(32, 64, 128)))
    assert rec.checks["constant_zero"]["pass"]
    assert rec.checks["fh_gap[beta=0.2]"]["pass"]


def test_strong_szego_runner_small():
    rec = run(ExperimentSpec(name="strong_szego", grid_log2=11, n_grid=(32, 64, 128)))
    assert rec.checks["fh_decreasing"]["pass"]
    assert rec.checks["bs_exact"]["pass"]


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
                          params={"beta": -0.5}, out=str(out), fmt="json")
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


def test_cli_projection_honours_p(tmp_path):
    out = tmp_path / "proj.json"
    main(["projection", "--grid-log2", "10", "--nmax", "32", "--p", "3", "--out", str(out)])
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
    pairs = load_thresholds()["fh_growth"]["pairs"]
    undetermined = [f for f in rec.flags if "three distinct degrees" in f]
    assert len(undetermined) == len(pairs)
    for (beta, p), flag in zip(pairs, undetermined):
        assert flag.startswith(f"beta={beta},p={p}:") and "(64, 91)" in flag
    full = run(ExperimentSpec(name="fh_growth", grid_log2=10, n_grid=(64, 91, 128)))
    assert not any("three distinct degrees" in f for f in full.flags)


def test_unconverged_continuity_cell_is_flagged(monkeypatch):
    # negative control: with one iteration no p != 2 cell converges
    capped = operators.power_method_lp
    monkeypatch.setattr(operators, "power_method_lp",
                        lambda probe, p, x0: capped(probe, p, x0, max_iters=1))
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
