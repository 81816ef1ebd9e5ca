"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance comes from the frozen thresholds file.

Each record built here is also compared with its golden copy in
tests/golden/ (see `golden_mismatches`).  After a change that moves
records on purpose, rewrite the goldens with

    pytest tests/test_acceptance.py --update-goldens

and review the diff of tests/golden/ like any other change.
"""

import copy
import json
import time
from pathlib import Path

import numpy as np
import pytest

import opuckit as ok
from opuckit.experiments import ExperimentSpec, load_thresholds, run

from conftest import quadrature_gram

THR = load_thresholds()
GRID = ok.CircleGrid(THR["orthonormality"]["grid_log2"])


GOLDEN = Path(__file__).parent / "golden"
# Records reproduce bitwise only where numpy takes the same SIMD loop for `power`,
# so floats compare to a relative tolerance.  One-ulp noise in every weight moves
# no record float by more than 1e-12 relative; a change of method moves them by far
# more than 1e-9.  Below the absolute floor a float is roundoff (Gram deviations,
# mass defects of order 1e-16) and compares absolutely.
GOLDEN_RTOL, GOLDEN_ATOL = 1e-9, 1e-12


def report(criterion: str, ok_flag: bool, detail: str):
    print(f"{'PASS' if ok_flag else 'FAIL'} {criterion}: {detail}")
    assert ok_flag, f"{criterion}: {detail}"


def golden_payload(rec) -> dict:
    """The record's JSON without its wall-clock fields: `wall_time` and the value
    of the `runtime` check."""
    payload = json.loads(rec.to_json())
    del payload["wall_time"]
    if "runtime" in payload["checks"]:
        payload["checks"]["runtime"]["value"] = None
    return payload


def golden_mismatches(got, want, path: str = "record") -> list:
    """Every place where `got` differs from `want`: floats beyond
    max(GOLDEN_RTOL |want|, GOLDEN_ATOL), anything else (verdicts, flags,
    strings, integers, keys, lengths) by exact equality and type."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in golden_mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want))
                for m in golden_mismatches(g, w, f"{path}[{i}]")]
    if type(got) is float and type(want) is float:
        ok_flag = abs(got - want) <= max(GOLDEN_RTOL * abs(want), GOLDEN_ATOL)
    else:
        ok_flag = type(got) is type(want) and got == want
    return [] if ok_flag else [f"{path}: {got!r} != golden {want!r}"]


def golden_update(got, want):
    """What --update-goldens writes: `got`, except that each golden float the
    comparison accepts stays as it was, so a rewrite carries no roundoff noise."""
    if isinstance(want, dict) and isinstance(got, dict):
        return {k: golden_update(v, want[k]) if k in want else v for k, v in got.items()}
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [golden_update(g, w) for g, w in zip(got, want)]
    return got if golden_mismatches(got, want) else want


@pytest.fixture
def golden(request):
    """check(rec): compare rec with tests/golden/<name>.json, or rewrite that file
    under --update-goldens with `golden_update`."""
    update = request.config.getoption("--update-goldens")

    def check(rec):
        path = GOLDEN / f"{rec.name}.json"
        payload = golden_payload(rec)
        if update:
            if path.exists():
                payload = golden_update(payload, json.loads(path.read_text()))
            path.write_text(json.dumps(payload, indent=2) + "\n")
            return
        bad = golden_mismatches(payload, json.loads(path.read_text()))
        assert not bad, f"{rec.name} differs from {path.name}:\n" + "\n".join(bad[:20])

    return check


@pytest.fixture(scope="module")
def family_systems():
    cfg = THR["orthonormality"]
    out = {}
    for beta in cfg["betas"]:
        w = ok.make_weight("fisher_hartwig", {"beta": beta}, GRID)
        out[f"fisher_hartwig(beta={beta})"] = (w, ok.system_from_weight(w, 512))
    wb = ok.make_weight("bernstein_szego", {"a": cfg["bs_a"]}, GRID)
    out[f"bernstein_szego(a={cfg['bs_a']})"] = (wb, ok.system_from_weight(wb, 512))
    return out


def test_criterion_01_orthonormality(family_systems):
    cfg = THR["orthonormality"]
    worst, slowest = 0.0, 0.0
    for name, (w, sys) in family_systems.items():
        # the quadrature of the grid values, not the library's Toeplitz form: this is its oracle
        t0 = time.perf_counter()
        dev = float(np.max(np.abs(quadrature_gram(sys, w, cfg["nmax"]) - np.eye(cfg["nmax"] + 1))))
        elapsed = time.perf_counter() - t0
        worst = max(worst, dev)
        slowest = max(slowest, elapsed)
    ok_flag = worst < cfg["max_gram_deviation"] and slowest < cfg["max_seconds_per_family"]
    report("criterion 1 (orthonormality oracle)", ok_flag,
           f"max Gram deviation {worst:.3e} (tol {cfg['max_gram_deviation']}), "
           f"slowest family {slowest:.2f}s (cap {cfg['max_seconds_per_family']}s)")


def test_criterion_02_recursion_vs_gram_schmidt(family_systems):
    cfg = THR["recursion_oracle"]
    worst = 0.0
    for name, (w, sys) in family_systems.items():
        oracle = ok.gram_schmidt_monic(w.moments(cfg["nmax"]), cfg["nmax"])
        dev = float(np.max(np.abs(oracle - sys.monic[: cfg["nmax"] + 1, : cfg["nmax"] + 1])))
        worst = max(worst, dev)
    report("criterion 2 (recursion vs Gram-Schmidt)", worst < cfg["tol"],
           f"max monic coefficient deviation {worst:.3e} (tol {cfg['tol']}, n <= {cfg['nmax']})")


def test_criterion_03_fisher_hartwig_a2_laws(golden):
    rec = run(ExperimentSpec(name="a2_scaling", grid_log2=GRID.log2_size))
    c = rec.checks
    detail = (f"slope {c['small_beta_slope']['value']:.4f} (2 +/- 0.15); "
              f"band {c['blowup_band']['value']} in {c['blowup_band']['threshold']}; "
              f"subarc rel err {c['subarc_identity']['value']:.2e} (tol 0.02)")
    report("criterion 3 (Fisher-Hartwig A2 laws)", rec.passed and not rec.flags, detail)
    golden(rec)


def test_criterion_04_growth_trichotomy(golden):
    rec = run(ExperimentSpec(name="fh_growth", grid_log2=GRID.log2_size))
    devs = {k: abs(f["exponent"] - f["predicted_exponent"])
            for k, f in rec.fits.items()}
    detail = (f"max exponent deviation {max(devs.values()):.4f} (tol 0.05); "
              f"critical pair: {rec.checks['critical_log_class']['value']}; "
              f"runtime {rec.wall_time:.1f}s (cap 300s)")
    report("criterion 4 (growth trichotomy)", rec.passed and not rec.flags, detail)
    golden(rec)


def test_criterion_05_entropy_limit(golden):
    rec = run(ExperimentSpec(name="entropy_limit", grid_log2=GRID.log2_size))
    c = rec.checks
    gaps = [c[k]["value"] for k in c if k.startswith("fh_gap")]
    detail = (f"constant |E| {c['constant_zero']['value']:.2e} (tol 1e-12); "
              f"max FH gap at n=512 {max(gaps):.2e} (tol 0.05); "
              f"BS gap {c['bs_gap']['value']:.2e} (tol 1e-6)")
    report("criterion 5 (entropy limit)", rec.passed and not rec.flags, detail)
    golden(rec)


def test_criterion_06_strong_szego(golden):
    rec = run(ExperimentSpec(name="strong_szego", grid_log2=GRID.log2_size))
    c = rec.checks
    detail = (f"errors {['%.4f' % e for e in c['fh_decreasing']['value']]} decreasing; "
              f"final {c['fh_final']['value']:.4f} (tol 0.05); "
              f"BS {c['bs_exact']['value']:.2e} (tol 1e-8)")
    report("criterion 6 (strong Szego convergence)", rec.passed and not rec.flags, detail)
    golden(rec)


def test_criterion_07_normalization_sandwich(family_systems):
    cfg = THR["normalization_sandwich"]
    ok_flag = True
    worst_hi, worst_lo = 0.0, 0.0
    for name, (w, sys) in family_systems.items():
        inv_kappa = 1.0 / sys.kappa
        lower = float(np.exp(0.5 * np.mean(np.log(w.values))))
        worst_hi = max(worst_hi, float(np.max(inv_kappa)) - 1.0)
        worst_lo = max(worst_lo, lower - float(np.min(inv_kappa)))
        ok_flag = ok_flag and np.all(inv_kappa <= 1.0 + cfg["upper_slack"])
        ok_flag = ok_flag and np.all(inv_kappa >= lower - cfg["lower_slack"])
    report("criterion 7 (normalization sandwich)", bool(ok_flag),
           f"max(1/k_n - 1) = {worst_hi:.2e} (slack {cfg['upper_slack']}), "
           f"max(D0 - 1/k_n) = {worst_lo:.2e} (slack {cfg['lower_slack']}), all n <= 512")


def test_criterion_08_continuity_law(golden):
    rec = run(ExperimentSpec(name="continuity", grid_log2=GRID.log2_size))
    c = rec.checks
    detail = (f"slope[cos] {c['slope[cos]']['value']:.4f} (1 +/- 0.1); "
              f"slope[log|1-xi|] {c['slope[log_singular]']['value']:.4f} (1 +/- 0.15); "
              f"p=2 exact band norms, band 64")
    report("criterion 8 (weight-continuity law)", rec.passed and not rec.flags, detail)
    golden(rec)


def test_criterion_09_q_algebra():
    cfg = THR["q_algebra"]
    w = ok.make_weight("fisher_hartwig", {"beta": cfg["beta"]}, GRID)
    sys = ok.system_from_weight(w, cfg["n"])
    n = cfg["n"]
    worst_fixed = 0.0
    for p in cfg["fixed_point_ps"]:
        q = ok.build_Q(w, p, n)
        zeta = w.values ** (1.0 / p) * ok.poly_values(GRID, sys.monic[n, : n + 1])
        resid = zeta - q.apply(zeta) - w.values ** (1.0 / p) * np.exp(1j * n * GRID.nodes)
        worst_fixed = max(worst_fixed, float(np.max(np.abs(resid))))

    q2 = ok.build_Q(w, 2.0, n)
    rng = np.random.default_rng(0)
    worst_anti = 0.0
    for _ in range(4):
        f = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
        g = rng.standard_normal(GRID.size) + 1j * rng.standard_normal(GRID.size)
        ip = lambda a, b: np.mean(a * np.conj(b))
        scale = np.sqrt(abs(ip(f, f)) * abs(ip(g, g)))
        worst_anti = max(worst_anti, abs(ip(q2.apply(f), g) + ip(f, q2.apply(g))) / scale)

    M = ok.compress_band(q2, cfg["resolvent_band"])
    resolvent = 1.0 / np.linalg.svd(np.eye(len(M)) - M, compute_uv=False)[-1]

    ok_flag = (worst_fixed < cfg["fixed_point_tol"]
               and worst_anti < cfg["antisymmetry_tol"]
               and resolvent <= 1.0 + cfg["resolvent_slack"])
    report("criterion 9 (Q algebra)", bool(ok_flag),
           f"fixed point {worst_fixed:.2e} (tol 1e-6), antisymmetry {worst_anti:.2e} "
           f"(tol 1e-8), ||(I-Q)^-1|| = {resolvent:.12f} (<= 1 + 1e-8)")


def test_criterion_10_clark_duality(golden):
    rec = run(ExperimentSpec(name="clark_duality", grid_log2=GRID.log2_size))
    c = rec.checks
    detail = (f"mass defects: smooth {c['mass_smooth']['value']:.1e}, "
              f"FH non-inverting {c['mass_fh_noninverting']['value']:.1e} (tol 1e-6); "
              f"dual A2 ratio cap {c['dual_a2_bounded']['value']:.3f} (<= 1.5), monotone; "
              f"dual-of-dual {c['dual_of_dual']['value']:.1e}; "
              f"psi-Gram {c['psi_gram_dual']['value']:.1e} (tol 1e-6); "
              f"K-invariance masked {c['k_invariance_masked']['value']:.2e} (tol 1e-4)")
    report("criterion 10 (Clark/duality)", rec.passed and not rec.flags, detail)
    golden(rec)


def test_criterion_11_projection_uniformity(golden):
    rec = run(ExperimentSpec(name="projection_bound", grid_log2=GRID.log2_size))
    c = rec.checks["max_over_min"]
    probes = [r["probe"] for r in rec.rows]
    report("criterion 11 (projection uniformity surrogate)",
           rec.passed and not rec.flags,
           f"probes at p=2.1, n in 64..512: {['%.5f' % v for v in probes]}, "
           f"max/min {c['value']:.5f} (<= {c['threshold']})")
    golden(rec)


def test_criterion_12_pcr_upper_trend(golden):
    rec = run(ExperimentSpec(name="pcr_upper_trend", grid_log2=GRID.log2_size))
    c = rec.checks["pstar_exponent"]
    spots = {k: v["value"] for k, v in rec.checks.items() if k.startswith("spot")}
    report("criterion 12 (p_cr upper trend)", rec.passed and not rec.flags,
           f"divergent-part exponent {c['value']:.4f} (-0.5 +/- 0.1, raw "
           f"{rec.fits['pstar_trend']['raw_exponent']:.4f}); spot thresholds {spots}")
    golden(rec)


def test_opuc_diagnostics_record(golden):
    rec = run(ExperimentSpec(name="opuc_diagnostics", grid_log2=GRID.log2_size))
    c = rec.checks
    report("opuc_diagnostics (default spec)", rec.passed and not rec.flags,
           f"Gram deviation {c['gram_identity']['value']:.1e}, "
           f"Gram-Schmidt oracle {c['gram_schmidt_oracle']['value']:.1e}, "
           f"1/kappa in {c['normalization_sandwich']['value']}")
    golden(rec)


def test_golden_comparison_catches_one_perturbed_float():
    # negative control: the comparison of the golden records must fail on one moved float
    want = json.loads((GOLDEN / "projection_bound.json").read_text())
    assert golden_mismatches(copy.deepcopy(want), want) == []
    got = copy.deepcopy(want)
    got["rows"][2]["probe"] *= 1.0 + 1e-11  # inside the tolerance
    assert golden_mismatches(got, want) == []
    got["rows"][2]["probe"] = want["rows"][2]["probe"] * (1.0 + 1e-8)
    assert golden_mismatches(got, want) == [
        f"record.rows[2].probe: {got['rows'][2]['probe']!r} != golden {want['rows'][2]['probe']!r}"]
    # integers, flags and verdicts are exact, and an integer is not a float
    for edit in (lambda r: r["rows"][0].update(iterations=19),
                 lambda r: r["rows"][0].update(n=float(r["rows"][0]["n"])),
                 lambda r: r["flags"].append("extra flag"),
                 lambda r: r["checks"]["max_over_min"].update({"pass": False})):
        got = copy.deepcopy(want)
        edit(got)
        assert len(golden_mismatches(got, want)) == 1


def test_golden_update_rewrites_only_what_moved():
    want = {"noise": 2.2205641716357755e-16, "kept": 1.0, "moved": 1.0, "gone": 0.5,
            "rows": [{"x": 3.0, "n": 3}], "flags": ["a"]}
    got = {"noise": 2.4377954077381346e-16, "kept": 1.0 + 1e-11, "moved": 1.0 + 1e-8,
           "rows": [{"x": 3.0, "n": 4, "new": 0.25}], "flags": ["a", "b"]}
    merged = golden_update(got, want)
    assert merged == {"noise": 2.2205641716357755e-16, "kept": 1.0, "moved": 1.0 + 1e-8,
                      "rows": [{"x": 3.0, "n": 4, "new": 0.25}], "flags": ["a", "b"]}
    assert golden_mismatches(got, merged) == []  # the rewritten golden accepts the record


def test_golden_rows_name_their_weight():
    # a row says which weight made it: its family's parameter rides with the family
    param = {"fisher_hartwig": "beta", "bernstein_szego": "a"}
    for path in sorted(GOLDEN.glob("*.json")):
        for i, row in enumerate(json.loads(path.read_text())["rows"]):
            key = param.get(row.get("family"))
            assert key is None or key in row, f"{path.name} rows[{i}] lacks {key!r}"
