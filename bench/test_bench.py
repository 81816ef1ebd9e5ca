"""Self-tests of the benchmark, on small grids so they finish in seconds.

    python3 -m pytest bench -q
"""

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import opuckit  # noqa: E402
from opuckit import opuc, szego, weights  # noqa: E402

import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_end_to_end_metric_printed_with_unit(name):
    proc = run_bench("--workload", name, "--seed", "3", "--seconds", "1", "--small")
    res = result_of(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    if name != "suite14":  # suite14's thresholds were calibrated at m = 14 only
        assert res["correct"] and res["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert "fail_frac" in proc.stdout
    phases = {"suite14": ("continuity_s", "projection_bound_s"),
              "steklov18": ("fh_growth_s", "pcr_upper_trend_s"),
              "harmonic16": ("bmo_s", "clark_s")}[name]
    assert all(f"  {p} " in proc.stdout for p in phases)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_per_layer_metric_printed_with_unit(name):
    res = result_of(run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                              "--small", "--trace", "1"))
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: m["unit"] for k, m in res["metrics"].items()} == expected
    values = {k: m["value"] for k, m in res["metrics"].items()}
    assert values["grid.fft_calls"] > 0
    if name != "suite14":
        assert all(v == 0 for k, v in values.items() if k.startswith("operators."))
    if name == "harmonic16":
        assert values["opuc.recursion_calls"] == 0 and values["experiments.rows"] == 0
    else:
        assert values["experiments.rows"] > 0 and values["opuc.recursion_calls"] > 0


def test_directory_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run_bench("--workload", "harmonic16", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def one_pass_failures(name: str) -> int:
    wl = workloads.WORKLOADS[name](5, small=True)
    wl.setup()
    _, checks, _, _ = worker.measure(wl, 0.0)
    return sum(not c["pass"] for c in checks)


def perturbed_recursion(monkeypatch):
    """Every Szego recursion returns a system rebuilt from perturbed Verblunsky data."""
    orig = opuc.szego_recursion

    def corrupted(moments, nmax, weight=None):
        system = orig(moments, nmax, weight)
        alphas = system.verblunsky.copy()
        alphas[0] *= 1.01
        # the second-kind map negates every coefficient: twice rebuilds the table
        rebuilt = opuc.second_kind(opuc.second_kind(replace(system, verblunsky=alphas)))
        return replace(rebuilt, weight=system.weight)

    monkeypatch.setattr(opuc, "szego_recursion", corrupted)


def rescaled_szego(monkeypatch):
    """Szego data computed from 1.1 w but reported for w."""
    orig = szego.szego_function

    def corrupted(w):
        scaled = weights.make_weight("user", {"values": 1.1 * w.values}, w.grid, normalize=False)
        return replace(orig(scaled), weight=w)

    monkeypatch.setattr(szego, "szego_function", corrupted)


def scaled_poisson(monkeypatch):
    """Both Poisson characteristics 0.1% too large, on both sample paths."""
    orig = weights.poisson_characteristics

    def corrupted(w, z_samples=None):
        return tuple(1.001 * v for v in orig(w, z_samples))

    monkeypatch.setattr(weights, "poisson_characteristics", corrupted)


@pytest.mark.parametrize("name, corrupt", [
    ("suite14", perturbed_recursion),
    ("steklov18", perturbed_recursion),
    ("harmonic16", rescaled_szego),
    ("harmonic16", scaled_poisson),
])
def test_negative_control(name, corrupt, monkeypatch):
    clean = one_pass_failures(name)
    if name != "suite14":  # suite14's thresholds were calibrated at m = 14 only
        assert clean == 0
    corrupt(monkeypatch)
    assert one_pass_failures(name) > clean


def test_tracer_wraps_every_binding_and_undoes():
    originals = (opuckit.operators.riesz_project, opuckit.experiments.continuity_experiment,
                 opuckit.grid.CircleGrid.__dict__["synthesize"], opuckit.opuc.poly_values)
    tr = tracing.Tracer()
    uninstall = tr.install()
    try:
        assert opuckit.operators.riesz_project is not originals[0]
        assert opuckit.experiments.continuity_experiment is not originals[1]
        assert opuckit.grid.CircleGrid.__dict__["synthesize"] is not originals[2]
        assert opuckit.experiments.poly_values is opuckit.opuc.poly_values
        g = opuckit.CircleGrid(8)
        opuckit.opuc.poly_values(g, np.ones(4))  # no open phase: not recorded
        assert tr.spans == []
        tr.group = "p"
        opuckit.opuc.poly_values(g, np.ones(4))
        tr.group = None
    finally:
        uninstall()
    assert (opuckit.operators.riesz_project, opuckit.experiments.continuity_experiment,
            opuckit.grid.CircleGrid.__dict__["synthesize"], opuckit.opuc.poly_values) == originals
    names = [s[0] for s in tr.spans]
    assert names == ["opuc.poly_values", "grid.synthesize"]
    assert tr.spans[1][3] == 0 and {s[4] for s in tr.spans} == {"p"}
    parent_self, child_self = tr.self_times()
    assert parent_self == pytest.approx((tr.spans[0][2] - tr.spans[0][1])
                                        - (tr.spans[1][2] - tr.spans[1][1]))
    assert child_self == tr.spans[1][2] - tr.spans[1][1]
