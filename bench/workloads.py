"""The three benchmark workloads.

Each workload makes its inputs in `setup` (from the seed where it has
random inputs), runs one pass of program calls in `run_pass` with every
call inside a named phase, and checks the pass's outputs in `check`,
outside any phase.  Program functions are always reached through their
module (`weights.ap_characteristic`, not a name bound at import), so the
tracer's wrappers apply.

Tolerances come from the package's `thresholds.json`.  The only constant
here, `ROUNDOFF`, bounds identities that hold to floating-point rounding
and that the thresholds file does not cover.
"""

import traceback

import numpy as np

from opuckit import clark, experiments, grid, opuc, szego, weights

ROUNDOFF = 1e-10


def _check(name: str, ok, value, threshold) -> dict:
    return {"name": name, "pass": bool(ok), "value": value, "threshold": threshold}


def half_octave_ladder(lo: int, hi: int) -> tuple:
    """lo, lo*sqrt(2), 2*lo, ... up to hi, rounded like the thresholds' n-grids."""
    steps = int(round(2 * np.log2(hi / lo)))
    return tuple(int(round(lo * 2 ** (k / 2))) for k in range(steps + 1))


def _run_experiments(specs, timer) -> list:
    """experiments.run for each spec in its own phase.

    An exception is a failed operation: it is reported and the suite goes
    on, so that one broken experiment does not hide the others' checks.
    """
    records = []
    for spec in specs:
        try:
            with timer.phase(spec.name):
                records.append(experiments.run(spec))
        except Exception as exc:  # noqa: BLE001 - counted as a failed check
            traceback.print_exc()
            records.append(exc)
    return records


def _record_checks(specs, records) -> tuple:
    """Every check of every record; exit-code-2 flags are kept apart as flags."""
    checks, flags = [], []
    for spec, rec in zip(specs, records):
        if isinstance(rec, Exception):
            checks.append(_check(f"{spec.name}.completed", False, repr(rec), "no exception"))
            continue
        for cname, c in rec.checks.items():
            checks.append(_check(f"{rec.name}.{cname}", c["pass"], c["value"], c["threshold"]))
        flags.extend(f"{rec.name}: {fl}" for fl in rec.flags)
    return checks, flags


class Suite14:
    """All nine acceptance experiments at the calibrated grid, default specs."""

    name = "suite14"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        self.log2 = 10 if small else 14

    def setup(self):
        # experiments without an n-grid ignore the one passed in small mode
        extra = {"grid_log2": self.log2, "n_grid": half_octave_ladder(16, 128)} if self.small else {}
        self.specs = [experiments.ExperimentSpec(name, seed=self.seed, **extra)
                      for name in experiments.EXPERIMENT_NAMES]

    def run_pass(self, timer):
        return _run_experiments(self.specs, timer)

    def check(self, records) -> tuple:
        return _record_checks(self.specs, records)


class Steklov18:
    """fh_growth and pcr_upper_trend at m = 18 on the half-octave ladder 512..4096.

    The full study runs the ladder 64..8192.  Dropping the points below 512
    shortens a pass from 17-21 s to 10-13 s on a 2-core machine, so that a
    run holds two or three passes to take the median of; stopping at 4096
    keeps the monic table (268 MB) the peak of memory.  Every check still
    passes on this ladder.
    """

    name = "steklov18"

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.log2 = 14 if small else 18
        self.ladder = half_octave_ladder(64, 512) if small else half_octave_ladder(512, 4096)

    def setup(self):
        self.thr = experiments.load_thresholds()
        self.specs = [experiments.ExperimentSpec(name, grid_log2=self.log2, n_grid=self.ladder,
                                                 seed=self.seed)
                      for name in ("fh_growth", "pcr_upper_trend")]

    def run_pass(self, timer):
        records = _run_experiments(self.specs, timer)
        # oracle inputs, outside the timed phases: one m = 18 system
        beta = self.thr["fh_growth"]["pairs"][0][0]
        w = weights.make_weight("fisher_hartwig", {"beta": beta}, grid.CircleGrid(self.log2))
        system = opuc.system_from_weight(w, self.thr["orthonormality"]["nmax"])
        return {"records": records, "weight": w, "system": system}

    def check(self, out) -> tuple:
        checks, flags = _record_checks(self.specs, out["records"])
        thr = self.thr
        system, w = out["system"], out["weight"]
        n = system.nmax
        gdev = float(np.max(np.abs(opuc.gram_matrix(system, n) - np.eye(n + 1))))
        tol = thr["orthonormality"]["max_gram_deviation"]
        checks.append(_check(f"gram_identity[n={n}]", gdev <= tol, gdev, tol))
        n_or = thr["recursion_oracle"]["nmax"]
        oracle = opuc.gram_schmidt_monic(w.moments(n_or), n_or)
        dev = float(np.max(np.abs(oracle - system.monic[: n_or + 1, : n_or + 1])))
        tol = thr["recursion_oracle"]["tol"]
        checks.append(_check(f"recursion_vs_gram_schmidt[n<={n_or}]", dev <= tol, dev, tol))
        return checks, flags


def poisson_disk_oracle(w, zs) -> tuple:
    """(sup P(w)P(1/w), sup P(w) exp(-P(log w)), K) at the points `zs`.

    The normalized discrete Poisson kernel at every point, as one matrix,
    so that P(1, z) = 1 exactly (the weights poisson_characteristics and
    generalized_entropy use for explicit points).
    """
    zs = np.asarray(zs)[:, None]
    kern = (1.0 - np.abs(zs) ** 2) / np.abs(1.0 - np.conj(w.grid.points)[None, :] * zs) ** 2
    lam = kern / kern.sum(axis=1, keepdims=True)
    pw, pinv, plog = (lam @ v for v in (w.values, 1.0 / w.values, np.log(w.values)))
    return float(np.max(pw * pinv)), float(np.max(pw * np.exp(-plog))), np.log(pw) - plog


def poisson_default_oracle(w) -> tuple:
    """poisson_characteristics over its default samples: radii 1 - 2^-k,
    k = 1..m-2, times every node, by the r^|k| multiplier on the FFT."""
    n = w.grid.size
    absk = np.abs(np.fft.fftfreq(n, 1.0 / n))
    spectra = [np.fft.fft(v) for v in (w.values, 1.0 / w.values, np.log(w.values))]
    a2p = ainfp = -np.inf
    for r in 1.0 - 2.0 ** -np.arange(1, w.grid.log2_size - 1):
        pw, pinv, plog = (np.fft.ifft(s * r ** absk).real for s in spectra)
        a2p = max(a2p, float(np.max(pw * pinv)))
        ainfp = max(ainfp, float(np.max(pw * np.exp(-plog))))
    return a2p, ainfp


def conjugate_oracle(v) -> np.ndarray:
    """Harmonic conjugate by the multiplier -i sgn(k), Nyquist bin zeroed."""
    n = len(v)
    k = np.fft.fftfreq(n, 1.0 / n)
    mult = -1j * np.sign(k)
    mult[k == -(n // 2)] = 0.0
    return np.fft.ifft(np.fft.fft(v) * mult).real


def bmo_bounds(vals) -> tuple:
    """Lower and upper bounds on the dyadic BMO norm from a sparse arc family.

    Lower: the dyadic arcs of length L that start at multiples of L/16
    (every offset for L <= 16).  Upper: a dyadic arc I of length L > 16
    lies in the arc J of length 17L/16 that starts at the multiple of L/16
    at or below it, and <|f - <f>_I|>_I <= 2 <|f - <f>_J|>_I
    <= 2 (17/16) <|f - <f>_J|>_J.
    """
    n = len(vals)
    doubled = np.concatenate([vals, vals])

    def oscillation(length: int, step: int) -> float:
        win = np.lib.stride_tricks.sliding_window_view(doubled, length)[:n:step]
        return float(np.max(np.abs(win - win.mean(axis=1, keepdims=True)).mean(axis=1)))

    lower = upper = 0.0
    for k in range(1, n.bit_length()):
        length = 1 << k
        step = max(length // 16, 1)
        osc = oscillation(length, step)
        lower = max(lower, osc)
        upper = max(upper, osc if step == 1 else 2.0 * 17 / 16 * oscillation(length + step, step))
    return lower, upper


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Harmonic16:
    """Library calls on weights, Szego functions and Clark measures; no runner.

    The input counts come from the clark_duality experiment: as many
    Fisher-Hartwig exponents as its dual sweep, drawn from the seed in the
    sweep's range, and as many disk points as its K-invariance circle, on
    that circle's radius at angles drawn from the seed.
    """

    name = "harmonic16"
    PS = (1.5, 2.0, 3.0, 4.0)

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.log2 = 12 if small else 16
        self.bmo_log2 = 10 if small else 14

    def setup(self):
        self.thr = experiments.load_thresholds()
        cd = self.thr["clark_duality"]
        rng = np.random.default_rng(self.seed)
        sweep = cd["dual_sweep_betas"]
        self.betas = [float(b) for b in rng.uniform(min(sweep), max(sweep), len(sweep))]
        g = grid.CircleGrid(self.log2)
        self.weights = [weights.make_weight("fisher_hartwig", {"beta": b}, g) for b in self.betas]
        self.weights.append(weights.make_weight("bernstein_szego", {"a": cd["smooth_family_a"]}, g))
        angles = rng.uniform(0.0, 2.0 * np.pi, cd["k_invariance_angles"])
        self.disk = cd["k_invariance_radius"] * np.exp(1j * angles)
        gb = grid.CircleGrid(self.bmo_log2)
        wb = weights.make_weight("fisher_hartwig", {"beta": self.betas[0]}, gb)
        self.log_w = grid.GridFunction(gb, np.log(wb.values))
        self.alphas = [complex(re, im) for re, im in cd["alphas_re_im"]]

    def run_pass(self, timer):
        ws, zs = self.weights, self.disk
        out = {}
        with timer.phase("ap"):
            out["ap"] = [weights.ap_characteristic(w, p) for w in ws for p in self.PS]
        with timer.phase("poisson"):
            out["poisson"] = [(weights.poisson_characteristics(w),
                               weights.poisson_characteristics(w, zs)) for w in ws]
        with timer.phase("bmo"):
            out["bmo"] = weights.bmo_norm(self.log_w)
        with timer.phase("szego"):
            out["szego"] = [szego.szego_function(w) for w in ws]
            out["qcr"] = [szego.estimate_qcr(w) for w in ws]
        with timer.phase("clark"):
            out["clark"] = [[clark.clark_weight(w, a) for a in self.alphas] for w in ws]
        with timer.phase("entropy"):
            out["entropy"] = [clark.generalized_entropy(w, zs) for w in ws]
        return out

    def check(self, out) -> tuple:
        thr = self.thr
        checks = []
        for i, rep in enumerate(out["ap"]):
            label = f"w{i // len(self.PS)},p={rep.p}"
            checks.append(_check(f"ap_at_least_1[{label}]", rep.value >= 1.0, rep.value, 1.0))
        # family order: the Fisher-Hartwig weights, then Bernstein-Szego
        for i, (w, (fft_path, disk_path)) in enumerate(zip(self.weights, out["poisson"])):
            a2p, ainfp, k_oracle = poisson_disk_oracle(w, self.disk)
            for path, got, want in (("default", fft_path, poisson_default_oracle(w)),
                                    ("disk", disk_path, (a2p, ainfp))):
                err = max(_rel(g, x) for g, x in zip(got, want))
                checks.append(_check(f"poisson_{path}_vs_oracle[w{i}]", err <= ROUNDOFF,
                                     err, ROUNDOFF))
                # Jensen: 1 <= P(w) exp(-P(log w)) <= P(w) P(1/w)
                ok = 1.0 - ROUNDOFF <= got[1] <= got[0] * (1.0 + ROUNDOFF)
                checks.append(_check(f"poisson_{path}_jensen[w{i}]", ok, list(got),
                                     "1 <= ainfp <= a2p"))
            dev = float(np.max(np.abs(out["entropy"][i] - k_oracle)))
            checks.append(_check(f"gen_entropy_vs_oracle[w{i}]", dev <= ROUNDOFF, dev, ROUNDOFF))
            kmin = float(np.min(out["entropy"][i]))
            checks.append(_check(f"gen_entropy_nonnegative[w{i}]", kmin >= -ROUNDOFF,
                                 kmin, -ROUNDOFF))
        a2 = thr["a2_scaling"]
        for b in self.betas:
            rel = abs(weights.fh_subarc_product(b, a2["subarc_arc_length"])
                      / weights.fh_a2_exact(b) - 1.0)
            checks.append(_check(f"fh_subarc_identity[beta={b:.4f}]",
                                 rel <= a2["subarc_rel_tol"], rel, a2["subarc_rel_tol"]))
        g10 = grid.CircleGrid(10)
        w10 = weights.make_weight("fisher_hartwig", {"beta": self.betas[0]}, g10)
        f10 = grid.GridFunction(g10, np.log(w10.values))
        rel = _rel(weights.bmo_norm(f10), weights.bmo_norm_bruteforce(f10))
        checks.append(_check("bmo_vs_bruteforce[m=10]", rel <= ROUNDOFF, rel, ROUNDOFF))
        lower, upper = bmo_bounds(self.log_w.values.real)
        ok = lower * (1.0 - ROUNDOFF) <= out["bmo"] <= upper * (1.0 + ROUNDOFF)
        checks.append(_check(f"bmo_within_bounds[m={self.bmo_log2}]", ok, out["bmo"],
                             [lower, upper]))
        for i, sd in enumerate(out["szego"]):
            w = sd.weight.values
            dev = float(np.max(np.abs(np.abs(sd.D.values) ** 2 - w) / w))
            checks.append(_check(f"szego_modulus[w{i}]", dev <= ROUNDOFF, dev, ROUNDOFF))
        # estimate_qcr is a lower bound for q_cr = 1/(2 beta); Bernstein-Szego has none
        for i, q in enumerate(out["qcr"]):
            cap = 1.0 / (2.0 * self.betas[i]) if i < len(self.betas) else np.inf
            checks.append(_check(f"qcr_lower_bound[w{i}]", 0.0 < q <= cap and np.isfinite(q),
                                 q, cap))
        for i, (w, cs) in enumerate(zip(self.weights, out["clark"])):
            h = conjugate_oracle(w.values)
            for c in cs:
                F = c.F_boundary.values
                dev = float(np.max(np.abs(F - (w.values + 1j * h)))) / float(np.max(w.values))
                # Clark density (1 - |b|^2)/|conj(alpha) - b|^2 with b = (F - 1)/(F + 1)
                b = (F - 1.0) / (F + 1.0)
                density = (1.0 - np.abs(b) ** 2) / np.abs(np.conj(c.alpha) - b) ** 2
                dev = max(dev, float(np.max(np.abs(c.w_alpha.values - density) / density)),
                          _rel(c.mass, float(np.mean(c.w_alpha.values))))
                checks.append(_check(f"clark_vs_oracle[w{i},alpha={c.alpha}]",
                                     dev <= ROUNDOFF, dev, ROUNDOFF))
        cd = thr["clark_duality"]
        smooth = out["clark"][-1]  # the Bernstein-Szego weight is last
        for c in smooth:
            defect = abs(c.mass - 1.0)
            checks.append(_check(f"clark_mass_smooth[alpha={c.alpha}]", defect <= cd["mass_tol"],
                                 defect, cd["mass_tol"]))
        dual = next(c for c in smooth if abs(c.alpha + 1.0) <= 1e-12)
        dd = clark.clark_weight(dual.w_alpha, -1.0)
        err = float(np.max(np.abs(dd.w_alpha.values - self.weights[-1].values)))
        checks.append(_check("dual_of_dual_smooth", err <= cd["dual_of_dual_tol"], err,
                             cd["dual_of_dual_tol"]))
        return checks, []


WORKLOADS = {cls.name: cls for cls in (Suite14, Steklov18, Harmonic16)}

