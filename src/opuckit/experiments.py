"""Experiment runner: composes the module operations into the named
acceptance experiments, applies the frozen thresholds, and serializes
plot-ready records.

Pass/fail thresholds live in data/thresholds.json, never in code; a fit
is accepted only when its R^2 clears the frozen gate, otherwise the record
is flagged (model misfit) rather than failed (threshold violation).
Re-running a spec with the same seed reproduces every numeric field.
"""

import csv
import io
import json
import time
from dataclasses import asdict, dataclass, field
from importlib import resources

import numpy as np

from . import __version__
from .clark import clark_weight, generalized_entropy
from .fits import (classify_growth, fit_loglog, growth_exponent,
                   regression_ssr, threshold_intercept)
from .grid import CircleGrid, GridFunction
from .opuc import (gram_matrix, gram_schmidt_monic, projection_norm_probe,
                   second_kind, steklov_norms, system_from_weight)
from .opuc import poly_values  # noqa: F401 - bench/test_bench.py traces this re-bound name
from .operators import continuity_experiment
from .szego import entropy, entropy_limit_target, strong_szego_error, szego_function
from .weights import (ArcFamily, ap_characteristic, fh_a2_exact, fh_subarc_product,
                      make_weight, renormalized)


def load_thresholds() -> dict:
    with resources.files("opuckit.data").joinpath("thresholds.json").open() as fh:
        return json.load(fh)


class SpecError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    name: str
    family: str = "fisher_hartwig"
    params: dict = field(default_factory=dict)
    grid_log2: int = 14
    n_grid: tuple = ()
    p_grid: tuple = ()
    seed: int = 0
    out: str | None = None
    fmt: str = "json"
    arcs: str = "dyadic"

    def __post_init__(self):
        if self.name not in EXPERIMENT_NAMES:
            raise SpecError(f"unknown experiment {self.name!r}; expected one of {EXPERIMENT_NAMES}")
        if self.fmt not in ("csv", "json"):
            raise SpecError("format must be 'csv' or 'json'")
        if self.arcs not in ("dyadic", "full"):
            raise SpecError("arcs must be 'dyadic' or 'full'")
        n = 1 << self.grid_log2
        if self.n_grid and max(self.n_grid) >= n // 4:
            raise SpecError(f"n-grid max must stay below N/4 = {n // 4}")
        if self.p_grid and min(self.p_grid) <= 1.0:
            raise SpecError("all p must exceed 1")
        if self.name == "pcr_upper_trend" and self.n_grid and len(set(self.n_grid)) < 3:
            raise SpecError(f"pcr_upper_trend fits c1 + c2 n^e and needs three distinct degrees "
                            f"in n_grid, got {tuple(self.n_grid)} (from the CLI: --nmax >= 128)")
        if self.name == "fh_growth" and (self.params.get("beta") is None) != (not self.p_grid):
            raise SpecError("fh_growth reads --beta and --p only together (params['beta'] "
                            "and p_grid): give both, or neither for the default pairs")
        if self.name == "projection_bound" and len(self.p_grid) > 1:
            raise SpecError(f"projection_bound probes one exponent: --p takes a single "
                            f"value, got {tuple(self.p_grid)}")

    def echo(self) -> dict:
        d = asdict(self)
        d["params"] = {k: (v if isinstance(v, (int, float, str, bool, type(None))) else repr(v))
                       for k, v in self.params.items()}
        return d


@dataclass
class ExperimentRecord:
    name: str
    spec: dict
    rows: list
    fits: dict
    checks: dict       # check name -> {"pass": bool, "value": ..., "threshold": ...}
    flags: list
    wall_time: float
    seed: int
    version: str = __version__

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    @property
    def exit_code(self) -> int:
        if not self.passed:
            return 3
        if self.flags:
            return 2
        return 0

    def to_json(self) -> str:
        payload = {
            "name": self.name, "version": self.version, "seed": self.seed,
            "wall_time": self.wall_time, "spec": self.spec, "rows": self.rows,
            "fits": self.fits, "checks": self.checks, "flags": self.flags,
            "passed": self.passed,
        }
        return json.dumps(_strict_json(payload), indent=2, default=float, allow_nan=False)

    def to_csv(self) -> str:
        buf = io.StringIO()
        if not self.rows:
            return ""
        keys = list(self.rows[0].keys())
        for row in self.rows[1:]:
            for k in row:
                if k not in keys:
                    keys.append(k)
        writer = csv.DictWriter(buf, fieldnames=keys)
        writer.writeheader()
        for row in self.rows:
            writer.writerow(row)
        return buf.getvalue()

    def summary_lines(self) -> list:
        lines = [f"[{self.name}] version {self.version}, seed {self.seed}, "
                 f"{self.wall_time:.2f}s, rows {len(self.rows)}"]
        for cname, c in self.checks.items():
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"  {status} {cname}: value={c['value']} threshold={c['threshold']}")
        for fl in self.flags:
            lines.append(f"  FLAG {fl}")
        return lines

    def write(self, path: str, fmt: str):
        with open(path, "w") as fh:
            fh.write(self.to_json() if fmt == "json" else self.to_csv())


def _strict_json(obj):
    """Copy of a record payload with every non-finite float as None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _strict_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict_json(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


class _Recorder:
    """What a runner produces: rows, fits, checks and flags.

    A stored fit is flagged when its R^2 is below the frozen gate; a fit
    given a tolerance also gets its verdict, exponent within
    predicted_exponent +/- tol, as its `pass` and as a check.  The rows
    survive an aborted run, for the partial record.
    """

    def __init__(self, gate: float):
        self.gate = gate
        self.rows, self.fits, self.checks, self.flags = [], {}, {}, []

    def check(self, name: str, value, ok: bool, threshold):
        self.checks[name] = {"pass": bool(ok), "value": value, "threshold": threshold}

    def at_most(self, name: str, value, tol):
        self.check(name, value, value <= tol, tol)

    def fit(self, label: str, fit: dict, tol=None, check: str | None = None):
        if fit["r2"] < self.gate:
            self.flags.append(f"{label}: fit R^2 = {fit['r2']:.4f} below acceptance gate {self.gate}")
        if tol is not None:
            target = fit["predicted_exponent"]
            fit["pass"] = abs(fit["exponent"] - target) <= tol
            self.check(check, fit["exponent"], fit["pass"], f"{target} +/- {tol}")
        self.fits[label] = fit

    def record(self, spec: ExperimentSpec, wall: float) -> ExperimentRecord:
        """The record, each row given the spec's grid_log2 and seed unless its
        cell set its own; written to spec.out when that is set."""
        for row in self.rows:
            row.setdefault("grid_log2", spec.grid_log2)
            row.setdefault("seed", spec.seed)
        record = ExperimentRecord(name=spec.name, spec=spec.echo(), rows=self.rows,
                                  fits=self.fits, checks=self.checks, flags=self.flags,
                                  wall_time=wall, seed=spec.seed)
        if spec.out:
            record.write(spec.out, spec.fmt)
        return record


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------

def _run_a2_scaling(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["a2_scaling"]
    arcs = ArcFamily(grid, spec.arcs)

    vals = []
    for b in cfg["slope_betas"]:
        w = make_weight("fisher_hartwig", {"beta": float(b)}, grid, normalize=False)
        rep = ap_characteristic(w, 2.0, arcs)
        vals.append(rep.value)
        rec.rows.append({"family": "fisher_hartwig", "beta": float(b), "p": 2.0,
                         "a2": rep.value, "argmax_offset": rep.argmax_arc[0],
                         "argmax_len": rep.argmax_arc[1], "kind": "slope"})
    slope, icpt, r2 = fit_loglog(cfg["slope_betas"], np.array(vals) - 1.0)
    rec.fit("beta_squared_law", {"exponent": slope, "intercept": icpt, "r2": r2,
                                 "predicted_exponent": cfg["slope_target"]},
            cfg["slope_tol"], "small_beta_slope")

    prods = []
    for b in cfg["band_betas"]:
        w = make_weight("fisher_hartwig", {"beta": float(b)}, grid, normalize=False)
        v = ap_characteristic(w, 2.0, arcs).value
        prods.append(v * (1.0 - 2.0 * b))
        rec.rows.append({"family": "fisher_hartwig", "beta": float(b), "p": 2.0, "a2": v,
                         "product": v * (1.0 - 2.0 * b), "kind": "blowup_band"})
    in_band = cfg["band_lo"] <= min(prods) and max(prods) <= cfg["band_hi"]
    rec.check("blowup_band", [min(prods), max(prods)], in_band, [cfg["band_lo"], cfg["band_hi"]])

    worst = 0.0
    for b in cfg["subarc_betas"]:
        q = fh_subarc_product(float(b), cfg["subarc_arc_length"])
        ex = fh_a2_exact(float(b))
        rel = abs(q / ex - 1.0)
        worst = max(worst, rel)
        rec.rows.append({"family": "fisher_hartwig", "beta": float(b), "p": 2.0,
                         "subarc_product": q, "exact": ex, "rel_err": rel, "kind": "subarc"})
    rec.at_most("subarc_identity", worst, cfg["subarc_rel_tol"])


def _steklov_norms(grid, pairs, n_grid) -> dict:
    """(beta, p) -> [||Phi_n||_{L^p_w} for n in n_grid], one recursion pass per beta."""
    p_by_beta = {}
    for beta, p in pairs:
        p_by_beta.setdefault(float(beta), []).append(float(p))
    out = {}
    for beta, p_grid in p_by_beta.items():
        sys = system_from_weight(make_weight("fisher_hartwig", {"beta": beta}, grid), max(n_grid))
        for p, norms in zip(p_grid, steklov_norms(sys, n_grid, p_grid).tolist()):
            out[beta, p] = norms
    return out


def _run_fh_growth(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["fh_growth"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    pairs = cfg["pairs"]
    if spec.params.get("beta") is not None and spec.p_grid:
        pairs = [(float(spec.params["beta"]), float(p)) for p in spec.p_grid]

    cb, cp = cfg["critical_pair"]
    all_norms = _steklov_norms(grid, [*pairs, (cb, cp)], n_grid)
    for beta, p in pairs:
        norms = all_norms[float(beta), float(p)]
        for n, nv in zip(n_grid, norms):
            rec.rows.append({"family": "fisher_hartwig", "beta": float(beta), "p": float(p),
                             "n": int(n), "norm": nv})
        g = growth_exponent(n_grid, norms, float(p))
        key = f"beta={beta},p={p}"
        if len(set(n_grid)) < 3:
            rec.flags.append(f"{key}: the c1 + c2 n^e fit needs three distinct degrees, "
                             f"got {tuple(sorted(set(n_grid)))}; its exponent is undetermined")
        rec.fit(key, {"exponent": g["exponent"], "e_model": g["e_model"], "r2": g["r2"],
                      "loglog_slope": g["loglog_slope"],
                      "predicted_exponent": max(0.0, float(p) * beta - 2.0 * beta - 1.0)},
                cfg["exponent_tol"], f"exponent[{key}]")

    norms = all_norms[float(cb), float(cp)]
    y = np.array(norms) ** float(cp)
    ssr_log = regression_ssr(n_grid, y, "log")
    log_wins = True
    for eps in cfg["critical_eps"]:
        ssr_pow = regression_ssr(n_grid, y, "power", float(eps))
        log_wins = log_wins and (ssr_log < ssr_pow)
        rec.rows.append({"family": "fisher_hartwig", "beta": float(cb), "p": float(cp),
                         "n": -1, "norm": float("nan"), "ssr_log": ssr_log,
                         "ssr_power_eps": ssr_pow, "eps": float(eps)})
    label = classify_growth(n_grid, norms, float(cp))
    rec.check("critical_log_class", label, log_wins and label == "log",
              "log beats n^eps regressions")


def _run_entropy_limit(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["entropy_limit"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    n_final = max(n_grid)

    w1 = make_weight("constant", {}, grid)
    s1 = system_from_weight(w1, n_final)
    rec.at_most("constant_zero", max(abs(entropy(s1, w1, n)) for n in n_grid),
                cfg["constant_tol"])

    betas = cfg["betas"] if spec.params.get("beta") is None else [float(spec.params["beta"])]
    for beta in betas:
        w = make_weight("fisher_hartwig", {"beta": float(beta)}, grid)
        sys = system_from_weight(w, n_final)
        target = entropy_limit_target(w)
        gaps = []
        for n in n_grid:
            e = entropy(sys, w, n)
            gaps.append(abs(e - target))
            rec.rows.append({"family": "fisher_hartwig", "beta": float(beta), "n": int(n),
                             "entropy": e, "target": target, "gap": gaps[-1]})
        rec.at_most(f"fh_gap[beta={beta}]", gaps[-1], cfg["fh_tol"])

    wb = make_weight("bernstein_szego", {"a": cfg["bs_a"]}, grid)
    sb = system_from_weight(wb, n_final)
    tb = entropy_limit_target(wb)
    bs_gap = max(abs(entropy(sb, wb, n) - tb) for n in n_grid if n >= 2)
    rec.rows.append({"family": "bernstein_szego", "a": cfg["bs_a"], "n": n_final,
                     "entropy": entropy(sb, wb, n_final), "target": tb, "gap": bs_gap})
    rec.at_most("bs_gap", bs_gap, cfg["bs_tol"])


def _run_strong_szego(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["strong_szego"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    beta = float(spec.params.get("beta", cfg["beta"]))

    w = make_weight("fisher_hartwig", {"beta": beta}, grid)
    sys = system_from_weight(w, max(n_grid))
    sz = szego_function(w)
    errs = [strong_szego_error(sys, sz, n) for n in n_grid]
    for n, e in zip(n_grid, errs):
        rec.rows.append({"family": "fisher_hartwig", "beta": beta, "n": int(n), "p": 2.0,
                         "error": e})
    decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    rec.check("fh_decreasing", errs, decreasing, "monotone decreasing")
    rec.at_most("fh_final", errs[-1], cfg["final_tol"])

    p_info = cfg["informational_p"]
    try:
        errs_info = [strong_szego_error(sys, sz, n, p_info) for n in n_grid]
        for n, e in zip(n_grid, errs_info):
            rec.rows.append({"family": "fisher_hartwig", "beta": beta, "n": int(n), "p": p_info,
                             "error": e})
    except ValueError as exc:
        rec.flags.append(f"informational p={p_info} skipped: {exc}")

    wb = make_weight("bernstein_szego", {"a": cfg["bs_a"]}, grid)
    sysb = system_from_weight(wb, max(2, min(8, max(n_grid))))
    szb = szego_function(wb)
    bs_err = max(strong_szego_error(sysb, szb, n) for n in (1, 2, min(8, max(n_grid))))
    rec.rows.append({"family": "bernstein_szego", "a": cfg["bs_a"], "n": 8, "p": 2.0,
                     "error": bs_err})
    rec.at_most("bs_exact", bs_err, cfg["bs_tol"])


def _run_continuity(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["continuity"]
    deltas, band = cfg["deltas"], int(cfg["band"])

    w = make_weight("constant", {}, grid)
    directions = {
        "cos": (np.cos(grid.nodes), cfg["tol_cos"]),
        "log_singular": (np.log(np.abs(1.0 - np.exp(1j * grid.nodes))), cfg["tol_log_singular"]),
    }
    # the gate cells, then informational p != 2 cells; no cell draws random numbers
    cells = [(fname, cfg["p"], deltas) for fname in directions]
    cells += [("cos", float(p), [deltas[0], deltas[-1]]) for p in cfg["informational_p"]]
    for fname, p, cell_deltas in cells:
        res = continuity_experiment(w, GridFunction(grid, directions[fname][0]), p, cell_deltas,
                                    band=band)
        for (delta, dist), est in zip(res["rows"], res["estimates"]):
            rec.rows.append({"f": fname, "p": p, "delta": delta, "distance": dist,
                             "converged": est.converged, "iterations": est.iterations,
                             "band": band})
            if not est.converged:
                rec.flags.append(f"power method not converged after {est.iterations} "
                                 f"iterations: f={fname}, p={p}, delta={delta}")
        if p == cfg["p"]:
            rec.fit(fname, {"exponent": res["slope"], "r2": res["r2"],
                            "predicted_exponent": cfg["slope_target"]}, directions[fname][1],
                    f"slope[{fname}]")


def _run_clark_duality(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["clark_duality"]
    alphas = [complex(re, im) for re, im in cfg["alphas_re_im"]]

    # probability mass at machine precision: smooth family for every alpha,
    # Fisher-Hartwig for the non-inverting alphas
    wb = make_weight("bernstein_szego", {"a": cfg["smooth_family_a"]}, grid)
    worst_smooth = 0.0
    for a in alphas:
        cd = clark_weight(wb, a)
        worst_smooth = max(worst_smooth, abs(cd.mass - 1.0))
        rec.rows.append({"family": "bernstein_szego", "alpha": str(a),
                         "mass_defect": abs(cd.mass - 1.0)})
    rec.at_most("mass_smooth", worst_smooth, cfg["mass_tol"])

    wf = make_weight("fisher_hartwig", {"beta": cfg["fh_beta"]}, grid)
    worst_fh = 0.0
    for a in alphas:
        cd = clark_weight(wf, a)
        defect = abs(cd.mass - 1.0)
        rec.rows.append({"family": "fisher_hartwig", "beta": cfg["fh_beta"], "alpha": str(a),
                         "mass_defect": defect})
        if abs(a + 1.0) > 1e-12:
            worst_fh = max(worst_fh, defect)
    rec.at_most("mass_fh_noninverting", worst_fh, cfg["mass_tol"])

    # dual mass on Fisher-Hartwig: h^(1-2beta) peak quadrature, tested as a
    # refinement trend rather than at the smooth-family tolerance
    defects = []
    for m in (spec.grid_log2 - 4, spec.grid_log2 - 2, spec.grid_log2):
        gm = CircleGrid(m)
        wm = make_weight("fisher_hartwig", {"beta": cfg["fh_beta"]}, gm)
        defects.append(abs(clark_weight(wm, -1.0).mass - 1.0))
        rec.rows.append({"family": "fisher_hartwig", "beta": cfg["fh_beta"], "alpha": "(-1+0j)",
                         "mass_defect": defects[-1], "grid_log2": m})
    ratio = cfg["fh_dual_mass_refinement_ratio"]
    trend_ok = all(defects[i + 1] < ratio * defects[i] for i in range(len(defects) - 1))
    rec.check("mass_fh_dual_refinement", defects, trend_ok, f"ratio < {ratio} per refinement")

    # A_2 stability of the dual across the beta sweep
    ratios, duals = [], []
    for b in cfg["dual_sweep_betas"]:
        wfb = make_weight("fisher_hartwig", {"beta": float(b)}, grid)
        a2w = ap_characteristic(wfb, 2.0).value
        a2d = ap_characteristic(clark_weight(wfb, -1.0).w_alpha, 2.0).value
        ratios.append(a2d / a2w)
        duals.append(a2d)
        rec.rows.append({"family": "fisher_hartwig", "beta": float(b), "a2": a2w,
                         "a2_dual": a2d, "ratio": a2d / a2w})
    bounded = np.isfinite(duals).all() and max(ratios) <= cfg["dual_ratio_cap"]
    monotone = all(duals[i + 1] > duals[i] for i in range(len(duals) - 1))
    rec.check("dual_a2_bounded", max(ratios), bounded, cfg["dual_ratio_cap"])
    rec.check("dual_a2_monotone", duals, monotone, "increasing in beta")

    # involution and second-kind orthonormality on the smooth family
    dd = clark_weight(clark_weight(wb, -1.0).w_alpha, -1.0)
    rec.at_most("dual_of_dual", float(np.max(np.abs(dd.w_alpha.values - wb.values))),
                cfg["dual_of_dual_tol"])

    nmax = cfg["psi_gram_nmax"]
    sysb = system_from_weight(wb, 2 * nmax)
    psib = second_kind(sysb)
    wdual = renormalized(clark_weight(wb, -1.0).w_alpha)
    gdev = float(np.max(np.abs(gram_matrix(psib, nmax, weight=wdual) - np.eye(nmax + 1))))
    rec.at_most("psi_gram_dual", gdev, cfg["psi_gram_tol"])

    # generalized-entropy invariance on radius k_invariance_radius
    wk = make_weight("fisher_hartwig", {"beta": cfg["k_invariance_beta"]}, grid)
    n_ang = cfg["k_invariance_angles"]
    angles = grid.nodes[:: grid.size // n_ang]
    zs = cfg["k_invariance_radius"] * np.exp(1j * angles)
    away = np.abs(np.angle(zs)) >= cfg["k_invariance_mask"]
    k_base = generalized_entropy(wk, zs)
    worst_masked, worst_all = 0.0, 0.0
    for a in (-1.0, 1j):
        ka = generalized_entropy(renormalized(clark_weight(wk, a).w_alpha), zs)
        d = np.abs(ka - k_base)
        worst_masked = max(worst_masked, float(d[away].max()))
        worst_all = max(worst_all, float(d.max()))
        rec.rows.append({"family": "fisher_hartwig", "beta": cfg["k_invariance_beta"],
                         "alpha": str(a), "k_dev_masked": float(d[away].max()),
                         "k_dev_all": float(d.max())})
    rec.at_most("k_invariance_masked", worst_masked, cfg["k_invariance_tol"])
    rec.at_most("k_invariance_all_angles", worst_all, cfg["k_invariance_all_angle_cap"])
    kb = generalized_entropy(wb, zs)
    kbd = generalized_entropy(renormalized(clark_weight(wb, -1.0).w_alpha), zs)
    rec.at_most("k_invariance_smooth", float(np.max(np.abs(kbd - kb))), 1e-10)


def _run_projection_bound(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["projection_bound"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    beta = float(spec.params.get("beta", cfg["beta"]))
    p = float((spec.p_grid or [cfg["p"]])[0])

    w = make_weight("fisher_hartwig", {"beta": beta}, grid)
    sys = system_from_weight(w, max(n_grid))
    probes = []
    for i, n in enumerate(n_grid):
        seed_i = cell_seed(spec.seed, i)
        v = projection_norm_probe(sys, n, p, trials=cfg["trials"], seed=seed_i)
        probes.append(v)
        rec.rows.append({"family": "fisher_hartwig", "beta": beta, "p": p, "n": int(n),
                         "probe": v, "trials": cfg["trials"], "seed": seed_i})
    rec.at_most("max_over_min", max(probes) / min(probes), cfg["max_over_min"])


def _run_pcr_upper_trend(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    cfg = thr["pcr_upper_trend"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]

    # measured beta^2 law: calibrates the beta that realizes a target t
    cal_betas = cfg["calibration_betas"]
    cal_vals = []
    for b in cal_betas:
        w = make_weight("fisher_hartwig", {"beta": float(b)}, grid, normalize=False)
        cal_vals.append(ap_characteristic(w, 2.0).value)
    cal_slope, cal_icpt, cal_r2 = fit_loglog(cal_betas, np.array(cal_vals) - 1.0)
    rec.fit("calibration", {"exponent": cal_slope, "intercept": cal_icpt, "r2": cal_r2})
    c_cal = float(np.exp(cal_icpt))

    def empirical_pstar(beta: float) -> tuple:
        sys = system_from_weight(make_weight("fisher_hartwig", {"beta": beta}, grid), max(n_grid))
        p_pred = 2.0 + 1.0 / beta
        p_grid = list(spec.p_grid) or [p_pred * f for f in cfg["p_grid_factors"]]
        es = []
        for p, norms in zip(p_grid, steklov_norms(sys, n_grid, p_grid).tolist()):
            g = growth_exponent(n_grid, norms, float(p))
            es.append(g["e_model"])
            rec.rows.append({"family": "fisher_hartwig", "beta": beta, "p": float(p),
                             "n": max(n_grid), "norm": norms[-1], "exponent": g["e_model"]})
            if (abs(g["e_model"]) <= cfg["ambiguity_band"]
                    and abs(p - p_pred) > cfg["critical_window"] * p_pred):
                rec.flags.append(f"ambiguous growth class at beta={beta:.4f}, p={p:.3f} "
                                 f"(exponent {g['e_model']:+.4f} near zero away from the critical p)")
        return threshold_intercept(p_grid, es, floor=cfg["growth_floor"]), p_pred

    pstars, ts = [], []
    for t in cfg["t_grid"]:
        beta = float(((t - 1.0) / c_cal) ** (1.0 / cal_slope))
        w = make_weight("fisher_hartwig", {"beta": beta}, grid, normalize=False)
        t_meas = ap_characteristic(w, 2.0).value
        pstar, p_pred = empirical_pstar(beta)
        pstars.append(pstar)
        ts.append(t_meas)
        rec.rows.append({"family": "fisher_hartwig", "beta": beta, "t_target": float(t),
                         "t_measured": t_meas, "p_star": pstar, "p_predicted": p_pred})

    ts = np.array(ts)
    pstars = np.array(pstars)
    slope_div, _, r2_div = fit_loglog(ts - 1.0, pstars - 2.0)
    slope_raw, _, r2_raw = fit_loglog(ts - 1.0, pstars)
    rec.fit("pstar_trend", {"exponent": slope_div, "r2": r2_div,
                            "predicted_exponent": cfg["slope_target"],
                            "raw_exponent": slope_raw, "raw_r2": r2_raw},
            cfg["slope_tol"], "pstar_exponent")

    for spot in cfg["spot_checks"]:
        pstar, _ = empirical_pstar(float(spot["beta"]))
        rec.check(f"spot[beta={spot['beta']}]", pstar, spot["lo"] < pstar < spot["hi"],
                  [spot["lo"], spot["hi"]])


def _run_opuc_diagnostics(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: _Recorder):
    nmax = int(spec.params.get("nmax", 64))
    family = spec.family
    params = {k: v for k, v in spec.params.items() if k in ("beta", "a", "value")}
    if family == "fisher_hartwig" and "beta" not in params:
        params["beta"] = 0.3
    if family == "bernstein_szego" and "a" not in params:
        params["a"] = 0.5

    w = make_weight(family, params, grid)
    sys = system_from_weight(w, nmax)
    for n in range(nmax + 1):
        rec.rows.append({"family": family, **{k: float(v) for k, v in params.items()},
                         "n": n, "abs_alpha": float(abs(sys.verblunsky[n])) if n < nmax else float("nan"),
                         "kappa": float(sys.kappa[n])})

    gdev = float(np.max(np.abs(gram_matrix(sys, nmax) - np.eye(nmax + 1))))
    rec.at_most("gram_identity", gdev, thr["orthonormality"]["max_gram_deviation"])

    n_oracle = min(nmax, thr["recursion_oracle"]["nmax"])
    oracle = gram_schmidt_monic(w.moments(n_oracle), n_oracle)
    dev = float(np.max(np.abs(oracle - sys.monic[: n_oracle + 1, : n_oracle + 1])))
    rec.at_most("gram_schmidt_oracle", dev, thr["recursion_oracle"]["tol"])

    inv_kappa = 1.0 / sys.kappa
    lower = float(np.exp(0.5 * np.mean(np.log(w.values))))
    snd = thr["normalization_sandwich"]
    ok = (np.all(inv_kappa <= 1.0 + snd["upper_slack"])
          and np.all(inv_kappa >= lower - snd["lower_slack"]))
    rec.check("normalization_sandwich", [float(inv_kappa.min()), float(inv_kappa.max())],
              ok, [lower, 1.0])


_RUNNERS = {
    "a2_scaling": _run_a2_scaling,
    "fh_growth": _run_fh_growth,
    "entropy_limit": _run_entropy_limit,
    "strong_szego": _run_strong_szego,
    "continuity": _run_continuity,
    "clark_duality": _run_clark_duality,
    "projection_bound": _run_projection_bound,
    "pcr_upper_trend": _run_pcr_upper_trend,
    "opuc_diagnostics": _run_opuc_diagnostics,
}
EXPERIMENT_NAMES = tuple(_RUNNERS)


def cell_seed(master: int, index: int) -> int:
    """Deterministic per-cell seed derived from (master seed, cell index)."""
    return int(np.random.SeedSequence(entropy=master, spawn_key=(index,)).generate_state(1)[0])


def run(spec: ExperimentSpec) -> ExperimentRecord:
    """Execute the named experiment; deterministic given the spec seed.

    A module error inside a cell propagates, but the rows completed so far
    are still serialized (when an output path is set) with a failure marker.
    """
    thr = load_thresholds()
    rec = _Recorder(thr["fit_acceptance_r2"])
    t0 = time.perf_counter()
    try:
        _RUNNERS[spec.name](spec, thr, CircleGrid(spec.grid_log2), rec)
    except Exception as exc:
        rec.fits, rec.checks = {}, {}
        rec.flags = [f"aborted after {len(rec.rows)} rows: {exc!r}"]
        rec.check("completed", repr(exc), False, "experiment ran to completion")
        rec.record(spec, time.perf_counter() - t0)
        raise
    wall = time.perf_counter() - t0
    calibrated = thr["orthonormality"]["grid_log2"]
    if spec.grid_log2 != calibrated:
        rec.flags.append(f"thresholds were frozen at grid_log2={calibrated}; "
                         f"this run used grid_log2={spec.grid_log2}")
    if spec.name == "fh_growth":
        budget = thr["fh_growth"]["max_seconds_total"]
        rec.check("runtime", wall, wall < budget, budget)
    return rec.record(spec, wall)
