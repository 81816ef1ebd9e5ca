"""Experiment runner: composes the module operations into the named
acceptance experiments, applies the frozen thresholds, and serializes
plot-ready records.

Pass/fail thresholds live in data/thresholds.json, never in code; a fit
is accepted only when its R^2 clears the frozen gate, otherwise the record
is flagged (model misfit) rather than failed (threshold violation).
Every experiment is deterministic: a record's seed is only echoed.
"""

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple
from importlib import resources

import numpy as np

from . import __version__
from .clark import clark_weight, generalized_entropy
from .fits import (classify_growth, fit_loglog, growth_exponent,
                   regression_ssr, threshold_intercept)
from .grid import CircleGrid, GridFunction, _is_degree, _is_real
from .opuc import (gram_matrix, gram_schmidt_monic, projection_norm_probe,
                   second_kind, steklov_norms, system_from_weight)
from .opuc import poly_values  # noqa: F401 - bench/test_bench.py traces this re-bound name
from .operators import continuity_experiment
from .szego import entropy, entropy_limit_target, strong_szego_error, szego_function
from .weights import (ARC_KINDS, ap_characteristic, fh_a2_exact, fh_subarc_product,
                      make_weight, renormalized)


def load_thresholds() -> dict:
    with resources.files("opuckit.data").joinpath("thresholds.json").open() as fh:
        return json.load(fh)


class SpecError(ValueError):
    pass


@dataclass
class ExperimentSpec:
    """One run of a named experiment, which reads the inputs its EXPERIMENTS row
    names and ignores the others; None and () keep the frozen defaults."""

    name: str
    family: str = "fisher_hartwig"
    beta: float | None = None
    a: float | None = None
    nmax: int | None = None
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
        if self.arcs not in ARC_KINDS:
            raise SpecError(f"arcs must be one of {ARC_KINDS}, got {self.arcs!r}")
        for key, value in (("beta", self.beta), ("a", self.a)):
            if value is None:
                continue
            if not _is_real(value):
                raise SpecError(f"{key} must be a real number or None (from the CLI: --{key}), "
                                f"got {key} = {value!r} of type {type(value).__name__}")
            if not np.isfinite(value):
                raise SpecError(f"{key} must be finite (from the CLI: --{key}), got {key} = {value}")
        n = CircleGrid(self.grid_log2).size
        if self.nmax is not None and not (_is_degree(self.nmax) and 0 <= self.nmax < n // 2):
            raise SpecError(f"nmax must be an integer with 0 <= nmax < N/2 = {n // 2} "
                            f"(from the CLI: --nmax), got nmax = {self.nmax!r}")
        if not all(_is_degree(k) for k in self.n_grid):
            raise SpecError(f"n_grid must hold integer degrees (from the CLI: --nmax), "
                            f"got n_grid = {tuple(self.n_grid)}")
        if self.n_grid and max(self.n_grid) >= n // 4:
            raise SpecError(f"n-grid max must stay below N/4 = {n // 4} (from the CLI: --nmax), "
                            f"got max(n_grid) = {max(self.n_grid)}")
        if not all(_is_real(p) and 1.0 < p < np.inf for p in self.p_grid):
            raise SpecError(f"all p must be finite and exceed 1 (from the CLI: --p), "
                            f"got p_grid = {tuple(self.p_grid)}")
        if self.name == "pcr_upper_trend" and self.n_grid and len(set(self.n_grid)) < 3:
            raise SpecError(f"pcr_upper_trend fits c1 + c2 n^e and needs three distinct degrees "
                            f"in n_grid, got {tuple(self.n_grid)} (from the CLI: --nmax >= 128)")
        if self.name == "projection_bound" and self.n_grid and len(set(self.n_grid)) < 2:
            raise SpecError(f"projection_bound compares probes across degrees and needs two "
                            f"distinct degrees in n_grid, got {tuple(self.n_grid)} "
                            f"(from the CLI: --nmax >= 91)")
        if self.name in ("fh_growth", "pcr_upper_trend") and self.n_grid and min(self.n_grid) < 1:
            raise SpecError(f"{self.name} fits log n and n^e and needs degrees n >= 1 in "
                            f"n_grid, got {tuple(self.n_grid)} (from the CLI: --nmax >= 1)")
        if self.name == "entropy_limit" and self.n_grid and max(self.n_grid) < 2:
            raise SpecError(f"entropy_limit takes the Bernstein-Szego gap over n >= 2 and needs "
                            f"a degree n >= 2 in n_grid, got {tuple(self.n_grid)} "
                            f"(from the CLI: --nmax >= 2)")
        if self.name == "strong_szego" and self.n_grid and max(self.n_grid) < 1:
            raise SpecError(f"strong_szego checks the Bernstein-Szego closed form at degree "
                            f"min(8, max(n_grid)), exact only from n = 1 on, and needs a degree n "
                            f">= 1 in n_grid, got {tuple(self.n_grid)} (from the CLI: --nmax >= 1)")
        if self.name == "fh_growth" and (self.beta is None) != (not self.p_grid):
            raise SpecError("fh_growth reads --beta and --p only together (beta and "
                            "p_grid): give both, or neither for the default pairs")
        if self.name == "clark_duality" and self.grid_log2 < 10:
            raise SpecError(f"clark_duality refines its dual mass on the grids 2^(m-4), 2^(m-2) "
                            f"and 2^m, and the smallest grid is 2^6: it needs grid_log2 >= 10, "
                            f"got {self.grid_log2}")
        if self.name == "projection_bound" and len(self.p_grid) > 1:
            raise SpecError(f"projection_bound probes one exponent: --p takes a single "
                            f"value, got {tuple(self.p_grid)}")

    def echo(self) -> dict:
        """name, grid_log2, seed and the inputs the experiment reads."""
        keys = ("name", "grid_log2", "seed", *EXPERIMENTS[self.name].reads)
        return {k: getattr(self, k) for k in keys}


@dataclass
class ExperimentRecord:
    """What a run produces: rows, fits, checks and flags, filled in place by
    the experiment's runner.

    A stored fit is flagged when its R^2 is below the frozen gate `gate`; a
    fit given a tolerance also gets its verdict, exponent within
    predicted_exponent +/- tol, as its `pass` and as a check.  Each row gets
    the spec's grid_log2 and seed unless its cell set its own.  The rows
    survive an aborted run, for the partial record.
    """

    name: str
    spec: dict
    seed: int
    gate: float
    rows: list = field(default_factory=list)
    fits: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)  # check name -> {"pass", "value", "threshold"}
    flags: list = field(default_factory=list)
    wall_time: float = 0.0
    version: str = __version__

    def cell(self, family: str, grid: CircleGrid | None = None, normalize: bool = True,
             **params):
        """(weight, row) of one weight cell: the family's weight on `grid` (None
        when no grid is given), and row(**fields), which appends
        {family, **params, **fields}."""
        w = None if grid is None else make_weight(family, params, grid, normalize)
        return w, lambda **fields: self.row(family=family, **params, **fields)

    def row(self, **fields):
        fields.setdefault("grid_log2", self.spec["grid_log2"])
        fields.setdefault("seed", self.seed)
        self.rows.append(fields)

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

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks.values())

    @property
    def exit_code(self) -> int:
        return 3 if not self.passed else 2 if self.flags else 0

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
        keys = list(dict.fromkeys(k for row in self.rows for k in row))
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


# ---------------------------------------------------------------------------
# individual experiments
# ---------------------------------------------------------------------------

def _run_a2_scaling(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["a2_scaling"]
    vals = []
    for b in cfg["slope_betas"]:
        w, row = rec.cell("fisher_hartwig", grid, normalize=False, beta=float(b))
        rep = ap_characteristic(w, 2.0, spec.arcs)
        vals.append(rep.value)
        row(p=2.0, a2=rep.value, argmax_offset=rep.argmax_arc[0],
            argmax_len=rep.argmax_arc[1], kind="slope")
    slope, icpt, r2 = fit_loglog(cfg["slope_betas"], np.array(vals) - 1.0)
    rec.fit("beta_squared_law", {"exponent": slope, "intercept": icpt, "r2": r2,
                                 "predicted_exponent": cfg["slope_target"]},
            cfg["slope_tol"], "small_beta_slope")

    prods = []
    for b in cfg["band_betas"]:
        w, row = rec.cell("fisher_hartwig", grid, normalize=False, beta=float(b))
        v = ap_characteristic(w, 2.0, spec.arcs).value
        prods.append(v * (1.0 - 2.0 * b))
        row(p=2.0, a2=v, product=v * (1.0 - 2.0 * b), kind="blowup_band")
    in_band = cfg["band_lo"] <= min(prods) and max(prods) <= cfg["band_hi"]
    rec.check("blowup_band", [min(prods), max(prods)], in_band, [cfg["band_lo"], cfg["band_hi"]])

    worst = 0.0
    for b in cfg["subarc_betas"]:
        q = fh_subarc_product(float(b), cfg["subarc_arc_length"])
        ex = fh_a2_exact(float(b))
        rel = abs(q / ex - 1.0)
        worst = max(worst, rel)
        _, row = rec.cell("fisher_hartwig", beta=float(b))
        row(p=2.0, subarc_product=q, exact=ex, rel_err=rel, kind="subarc")
    rec.at_most("subarc_identity", worst, cfg["subarc_rel_tol"])


def _steklov_norms(rec, grid, pairs, n_grid) -> dict:
    """(beta, p) -> ([||Phi_n||_{L^p_w} for n in n_grid], the beta cell's row),
    one recursion pass per beta."""
    p_by_beta = {}
    for beta, p in pairs:
        p_by_beta.setdefault(float(beta), []).append(float(p))
    out = {}
    for beta, p_grid in p_by_beta.items():
        w, row = rec.cell("fisher_hartwig", grid, beta=beta)
        for p, norms in zip(p_grid, steklov_norms(w, n_grid, p_grid).tolist()):
            out[beta, p] = norms, row
    return out


def _run_fh_growth(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["fh_growth"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    pairs = cfg["pairs"]
    if spec.beta is not None and spec.p_grid:
        pairs = [(float(spec.beta), float(p)) for p in spec.p_grid]

    cb, cp = cfg["critical_pair"]
    all_norms = _steklov_norms(rec, grid, [*pairs, (cb, cp)], n_grid)
    few = f"needs three distinct degrees, got {tuple(sorted(set(n_grid)))}"
    for beta, p in pairs:
        norms, row = all_norms[float(beta), float(p)]
        for n, nv in zip(n_grid, norms):
            row(p=float(p), n=int(n), norm=nv)
        g = growth_exponent(n_grid, norms, float(p))
        key = f"beta={beta},p={p}"
        if len(set(n_grid)) < 3:
            rec.flags.append(f"{key}: the c1 + c2 n^e fit {few}; its exponent is undetermined")
        rec.fit(key, {"exponent": g["exponent"], "e_model": g["e_model"], "r2": g["r2"],
                      "loglog_slope": g["loglog_slope"],
                      "predicted_exponent": max(0.0, float(p) * beta - 2.0 * beta - 1.0)},
                cfg["exponent_tol"], f"exponent[{key}]")

    norms, row = all_norms[float(cb), float(cp)]
    y = np.array(norms) ** float(cp)
    ssr_log = regression_ssr(n_grid, y, "log")
    log_wins = True
    for eps in cfg["critical_eps"]:
        ssr_pow = regression_ssr(n_grid, y, "power", float(eps))
        log_wins = log_wins and (ssr_log < ssr_pow)
        row(p=float(cp), n=-1, norm=float("nan"), ssr_log=ssr_log, ssr_power_eps=ssr_pow,
            eps=float(eps))
    label = classify_growth(n_grid, norms, float(cp))
    if len(set(n_grid)) < 3:
        rec.flags.append(f"beta={cb},p={cp}: the log/n^eps comparison {few}; it compares roundoff")
    rec.check("critical_log_class", label, log_wins and label == "log",
              "log beats n^eps regressions")


def _run_entropy_limit(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["entropy_limit"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    n_final = max(n_grid)

    w1, _ = rec.cell("constant", grid)
    s1 = system_from_weight(w1, n_final)
    rec.at_most("constant_zero", max(abs(entropy(s1, w1, n)) for n in n_grid),
                cfg["constant_tol"])

    betas = cfg["betas"] if spec.beta is None else [float(spec.beta)]
    for beta in betas:
        w, row = rec.cell("fisher_hartwig", grid, beta=float(beta))
        sys = system_from_weight(w, n_final)
        target = entropy_limit_target(w)
        gaps = []
        for n in n_grid:
            e = entropy(sys, w, n)
            gaps.append(abs(e - target))
            row(n=int(n), entropy=e, target=target, gap=gaps[-1])
        rec.at_most(f"fh_gap[beta={beta}]", gaps[-1], cfg["fh_tol"])

    wb, row = rec.cell("bernstein_szego", grid, a=cfg["bs_a"])
    sb = system_from_weight(wb, n_final)
    tb = entropy_limit_target(wb)
    es = {n: entropy(sb, wb, n) for n in n_grid if n >= 2}
    bs_gap = max(abs(e - tb) for e in es.values())
    row(n=n_final, entropy=es[n_final], target=tb, gap=bs_gap)
    rec.at_most("bs_gap", bs_gap, cfg["bs_tol"])


def _run_strong_szego(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["strong_szego"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    beta = float(cfg["beta"] if spec.beta is None else spec.beta)

    w, row = rec.cell("fisher_hartwig", grid, beta=beta)
    sys = system_from_weight(w, max(n_grid))
    sz = szego_function(w)
    errs = [strong_szego_error(sys, sz, n) for n in n_grid]
    for n, e in zip(n_grid, errs):
        row(n=int(n), p=2.0, error=e)
    decreasing = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    rec.check("fh_decreasing", errs, decreasing, "monotone decreasing")
    rec.at_most("fh_final", errs[-1], cfg["final_tol"])

    p_info = cfg["informational_p"]
    try:
        errs_info = [strong_szego_error(sys, sz, n, p_info) for n in n_grid]
        for n, e in zip(n_grid, errs_info):
            row(n=int(n), p=p_info, error=e)
    except ValueError as exc:
        rec.flags.append(f"informational p={p_info} skipped: {exc}")

    wb, row = rec.cell("bernstein_szego", grid, a=cfg["bs_a"])
    n_bs = min(8, max(n_grid))
    sysb = system_from_weight(wb, max(2, n_bs))
    szb = szego_function(wb)
    bs_err = max(strong_szego_error(sysb, szb, n) for n in (1, 2, n_bs))
    row(n=n_bs, p=2.0, error=bs_err)
    rec.at_most("bs_exact", bs_err, cfg["bs_tol"])


def _run_continuity(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["continuity"]
    deltas, band = cfg["deltas"], int(cfg["band"])

    w, _ = rec.cell("constant", grid)
    directions = {
        "cos": (np.cos(grid.nodes), cfg["tol_cos"]),
        "log_singular": (np.log(np.abs(1.0 - np.exp(1j * grid.nodes))), cfg["tol_log_singular"]),
    }
    # the gate cells, then informational p != 2 cells
    cells = [(fname, cfg["p"], deltas) for fname in directions]
    cells += [("cos", float(p), [deltas[0], deltas[-1]]) for p in cfg["informational_p"]]
    for fname, p, cell_deltas in cells:
        res = continuity_experiment(w, GridFunction(grid, directions[fname][0]), p, cell_deltas,
                                    band=band)
        for (delta, dist), est in zip(res["rows"], res["estimates"]):
            rec.row(f=fname, p=p, delta=delta, distance=dist, converged=est.converged,
                    iterations=est.iterations, band=band)
            if not est.converged:
                rec.flags.append(f"power method not converged after {est.iterations} "
                                 f"iterations: f={fname}, p={p}, delta={delta}")
        if p == cfg["p"]:
            rec.fit(fname, {"exponent": res["slope"], "r2": res["r2"],
                            "predicted_exponent": cfg["slope_target"]}, directions[fname][1],
                    f"slope[{fname}]")


def _run_clark_duality(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["clark_duality"]
    alphas = [complex(re, im) for re, im in cfg["alphas_re_im"]]

    # probability mass at machine precision: smooth family for every alpha,
    # Fisher-Hartwig for the non-inverting alphas
    wb, row = rec.cell("bernstein_szego", grid, a=cfg["smooth_family_a"])
    smooth = {a: clark_weight(wb, a) for a in alphas}
    worst_smooth = 0.0
    for a, cd in smooth.items():
        worst_smooth = max(worst_smooth, abs(cd.mass - 1.0))
        row(alpha=str(a), mass_defect=abs(cd.mass - 1.0))
    rec.at_most("mass_smooth", worst_smooth, cfg["mass_tol"])

    wf, row = rec.cell("fisher_hartwig", grid, beta=cfg["fh_beta"])
    worst_fh = 0.0
    for a in alphas:
        cd = clark_weight(wf, a)
        defect = abs(cd.mass - 1.0)
        row(alpha=str(a), mass_defect=defect)
        if abs(a + 1.0) > 1e-12:
            worst_fh = max(worst_fh, defect)
    rec.at_most("mass_fh_noninverting", worst_fh, cfg["mass_tol"])

    # dual mass on Fisher-Hartwig: h^(1-2beta) peak quadrature, tested as a
    # refinement trend rather than at the smooth-family tolerance
    defects = []
    for m in (spec.grid_log2 - 4, spec.grid_log2 - 2, spec.grid_log2):
        wm, row = rec.cell("fisher_hartwig", CircleGrid(m), beta=cfg["fh_beta"])
        defects.append(abs(clark_weight(wm, -1.0).mass - 1.0))
        row(alpha="(-1+0j)", mass_defect=defects[-1], grid_log2=m)
    ratio = cfg["fh_dual_mass_refinement_ratio"]
    trend_ok = all(defects[i + 1] < ratio * defects[i] for i in range(len(defects) - 1))
    rec.check("mass_fh_dual_refinement", defects, trend_ok, f"ratio < {ratio} per refinement")

    # A_2 stability of the dual across the beta sweep
    ratios, duals = [], []
    for b in cfg["dual_sweep_betas"]:
        wfb, row = rec.cell("fisher_hartwig", grid, beta=float(b))
        a2w = ap_characteristic(wfb, 2.0).value
        a2d = ap_characteristic(clark_weight(wfb, -1.0).w_alpha, 2.0).value
        ratios.append(a2d / a2w)
        duals.append(a2d)
        row(a2=a2w, a2_dual=a2d, ratio=a2d / a2w)
    bounded = np.isfinite(duals).all() and max(ratios) <= cfg["dual_ratio_cap"]
    monotone = all(duals[i + 1] > duals[i] for i in range(len(duals) - 1))
    rec.check("dual_a2_bounded", max(ratios), bounded, cfg["dual_ratio_cap"])
    rec.check("dual_a2_monotone", duals, monotone, "increasing in beta")

    # involution and second-kind orthonormality on the smooth dual: the alpha = -1 cell
    dual = smooth[-1.0]
    dd = clark_weight(dual.w_alpha, -1.0)
    rec.at_most("dual_of_dual", float(np.max(np.abs(dd.w_alpha.values - wb.values))),
                cfg["dual_of_dual_tol"])

    nmax = cfg["psi_gram_nmax"]
    sysb = system_from_weight(wb, 2 * nmax)
    psib = second_kind(sysb)
    wdual = renormalized(dual.w_alpha)
    gdev = float(np.max(np.abs(gram_matrix(psib, nmax, weight=wdual) - np.eye(nmax + 1))))
    rec.at_most("psi_gram_dual", gdev, cfg["psi_gram_tol"])

    # generalized-entropy invariance on radius k_invariance_radius
    wk, row = rec.cell("fisher_hartwig", grid, beta=cfg["k_invariance_beta"])
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
        row(alpha=str(a), k_dev_masked=float(d[away].max()), k_dev_all=float(d.max()))
    rec.at_most("k_invariance_masked", worst_masked, cfg["k_invariance_tol"])
    rec.at_most("k_invariance_all_angles", worst_all, cfg["k_invariance_all_angle_cap"])
    kb = generalized_entropy(wb, zs)
    kbd = generalized_entropy(wdual, zs)
    rec.at_most("k_invariance_smooth", float(np.max(np.abs(kbd - kb))),
                cfg["k_invariance_smooth_tol"])


def _run_projection_bound(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["projection_bound"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]
    beta = float(cfg["beta"] if spec.beta is None else spec.beta)
    p = float((spec.p_grid or [cfg["p"]])[0])

    w, row = rec.cell("fisher_hartwig", grid, beta=beta)
    sys = system_from_weight(w, max(n_grid))
    probes = []
    for n in n_grid:
        est = projection_norm_probe(sys, n, p)
        probes.append(est.value)
        row(p=p, n=int(n), probe=est.value, converged=est.converged, iterations=est.iterations)
    rec.at_most("max_over_min", max(probes) / min(probes), cfg["max_over_min"])


def _run_pcr_upper_trend(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    cfg = thr["pcr_upper_trend"]
    n_grid = list(spec.n_grid) or cfg["n_grid"]

    # measured beta^2 law: calibrates the beta that realizes a target t
    cal_betas = cfg["calibration_betas"]
    cal_vals = []
    for b in cal_betas:
        w, _ = rec.cell("fisher_hartwig", grid, normalize=False, beta=float(b))
        cal_vals.append(ap_characteristic(w, 2.0).value)
    cal_slope, cal_icpt, cal_r2 = fit_loglog(cal_betas, np.array(cal_vals) - 1.0)
    rec.fit("calibration", {"exponent": cal_slope, "intercept": cal_icpt, "r2": cal_r2})
    c_cal = float(np.exp(cal_icpt))

    def empirical_pstar(beta: float, w, row) -> tuple:
        p_pred = 2.0 + 1.0 / beta
        p_grid = list(spec.p_grid) or [p_pred * f for f in cfg["p_grid_factors"]]
        es = []
        for p, norms in zip(p_grid, steklov_norms(w, n_grid, p_grid).tolist()):
            g = growth_exponent(n_grid, norms, float(p))
            es.append(g["e_model"])
            row(p=float(p), n=max(n_grid), norm=norms[-1], exponent=g["e_model"])
            if (abs(g["e_model"]) <= cfg["ambiguity_band"]
                    and abs(p - p_pred) > cfg["critical_window"] * p_pred):
                rec.flags.append(f"ambiguous growth class at beta={beta:.4f}, p={p:.3f} "
                                 f"(exponent {g['e_model']:+.4f} near zero away from the critical p)")
        return threshold_intercept(p_grid, es, floor=cfg["growth_floor"]), p_pred

    pstars, ts = [], []
    for t in cfg["t_grid"]:
        beta = float(((t - 1.0) / c_cal) ** (1.0 / cal_slope))
        # one sampling for both: [w]_{A_2} is scale invariant, so the normalized
        # weight gives t as well (to rounding)
        w, row = rec.cell("fisher_hartwig", grid, beta=beta)
        t_meas = ap_characteristic(w, 2.0).value
        pstar, p_pred = empirical_pstar(beta, w, row)
        pstars.append(pstar)
        ts.append(t_meas)
        row(t_target=float(t), t_measured=t_meas, p_star=pstar, p_predicted=p_pred)

    ts = np.array(ts)
    pstars = np.array(pstars)
    slope_div, _, r2_div = fit_loglog(ts - 1.0, pstars - 2.0)
    slope_raw, _, r2_raw = fit_loglog(ts - 1.0, pstars)
    rec.fit("pstar_trend", {"exponent": slope_div, "r2": r2_div,
                            "predicted_exponent": cfg["slope_target"],
                            "raw_exponent": slope_raw, "raw_r2": r2_raw},
            cfg["slope_tol"], "pstar_exponent")

    for spot in cfg["spot_checks"]:
        beta = float(spot["beta"])
        pstar, _ = empirical_pstar(beta, *rec.cell("fisher_hartwig", grid, beta=beta))
        rec.check(f"spot[beta={spot['beta']}]", pstar, spot["lo"] < pstar < spot["hi"],
                  [spot["lo"], spot["hi"]])


def _run_opuc_diagnostics(spec: ExperimentSpec, thr: dict, grid: CircleGrid, rec: ExperimentRecord):
    nmax = 64 if spec.nmax is None else int(spec.nmax)
    family = spec.family
    # the family's own parameter only; a constant's value is divided out by normalizing
    params = {"fisher_hartwig": {"beta": 0.3 if spec.beta is None else float(spec.beta)},
              "bernstein_szego": {"a": 0.5 if spec.a is None else float(spec.a)}}.get(family, {})

    w, row = rec.cell(family, grid, **params)
    sys = system_from_weight(w, nmax)
    for n in range(nmax + 1):
        row(n=n, abs_alpha=float(abs(sys.verblunsky[n])) if n < nmax else float("nan"),
            kappa=float(sys.kappa[n]))

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


class Experiment(NamedTuple):
    runner: Callable
    reads: tuple  # the spec inputs the runner reads besides grid_log2 and seed


EXPERIMENTS = {
    "a2_scaling": Experiment(_run_a2_scaling, ("arcs",)),
    "fh_growth": Experiment(_run_fh_growth, ("beta", "p_grid", "n_grid")),
    "entropy_limit": Experiment(_run_entropy_limit, ("beta", "n_grid")),
    "strong_szego": Experiment(_run_strong_szego, ("beta", "n_grid")),
    "continuity": Experiment(_run_continuity, ()),
    "clark_duality": Experiment(_run_clark_duality, ()),
    "projection_bound": Experiment(_run_projection_bound, ("beta", "p_grid", "n_grid")),
    "pcr_upper_trend": Experiment(_run_pcr_upper_trend, ("p_grid", "n_grid")),
    "opuc_diagnostics": Experiment(_run_opuc_diagnostics, ("family", "beta", "a", "nmax")),
}
EXPERIMENT_NAMES = tuple(EXPERIMENTS)


def run(spec: ExperimentSpec) -> ExperimentRecord:
    """Execute the named experiment; deterministic given the spec.

    A module error inside a cell propagates, but the rows completed so far
    are still serialized (when an output path is set) with a failure marker.
    """
    thr = load_thresholds()
    rec = ExperimentRecord(spec.name, spec.echo(), spec.seed, thr["fit_acceptance_r2"])
    t0 = time.perf_counter()
    try:
        EXPERIMENTS[spec.name].runner(spec, thr, CircleGrid(spec.grid_log2), rec)
    except Exception as exc:
        rec.fits, rec.checks = {}, {}
        rec.flags = [f"aborted after {len(rec.rows)} rows: {exc!r}"]
        rec.check("completed", repr(exc), False, "experiment ran to completion")
        rec.wall_time = time.perf_counter() - t0
        if spec.out:
            rec.write(spec.out, spec.fmt)
        raise
    rec.wall_time = time.perf_counter() - t0
    calibrated = thr["orthonormality"]["grid_log2"]
    if spec.grid_log2 != calibrated:
        rec.flags.append(f"thresholds were frozen at grid_log2={calibrated}; "
                         f"this run used grid_log2={spec.grid_log2}")
    if spec.name == "fh_growth":
        budget = thr["fh_growth"]["max_seconds_total"]
        rec.check("runtime", rec.wall_time, rec.wall_time < budget, budget)
    if spec.out:
        rec.write(spec.out, spec.fmt)
    return rec
