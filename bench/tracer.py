"""Span tracing of opuckit from outside the package.

`install` wraps every public function of the eight package modules, in
every opuckit namespace that holds it (modules bind names with
`from .grid import band_project`, so wrapping only the defining module
would miss the copies), plus `CircleGrid.analyze` and
`CircleGrid.synthesize` on the class.  A wrapper records a span only
while a phase is open; outside phases (input generation, correctness
checks) calls pass straight through.

A span is `[name, start, end, parent index, group, note]`.  `group` is the
open phase (one experiment or one family of library calls), shared by all
spans it contains.  `note` holds the few argument or result facts that the
per-layer counters need, such as the iteration count returned by
`power_method_lp`.  Spans stay in memory until `write_spans`.
"""

import functools
import gzip
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = ("grid", "weights", "opuc", "szego", "clark", "operators", "fits", "experiments")

MB = 1e6

# the experiments that dominate suite14 (continuity, projection_bound) and
# steklov18 (pcr_upper_trend, fh_growth) get their own time metric
TIMED_EXPERIMENTS = ("continuity", "projection_bound", "fh_growth", "pcr_upper_trend")


def _grid_note(args, kwargs, result):
    return args[0].size  # the CircleGrid: N samples in, N coefficients out


# span name -> note(args, kwargs, result); only calls that feed a counter
NOTES = {
    "grid.analyze": _grid_note,
    "grid.synthesize": _grid_note,
    "opuc.szego_recursion": lambda a, k, r: r.nmax,
    "operators.materialize_band": lambda a, k, r: r.shape[1],
    "operators.compress_band": lambda a, k, r: r.shape[1],
    "operators.materialize_full": lambda a, k, r: r.shape[1],
    "operators.operator_norm": lambda a, k, r: r.method,
    "operators.power_method_lp": lambda a, k, r: (bool(r[1]), int(r[2])),
    "clark.generalized_entropy": lambda a, k, r: len(r),
    "experiments.run": lambda a, k, r: (r.name, len(r.rows)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.group = None  # the open phase; None records nothing
        self._stack = []

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.group is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.group, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if note is not None:
                span[5] = note(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap the package's public functions; returns an undo callable."""
        import opuckit
        from opuckit.grid import CircleGrid

        modules = {layer: importlib.import_module(f"opuckit.{layer}") for layer in LAYERS}
        namespaces = [opuckit, *modules.values()]
        undo = []
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        setattr(ns, attr, wrapped)
                        undo.append((ns, attr, obj))
        for meth in ("analyze", "synthesize"):
            orig = CircleGrid.__dict__[meth]
            setattr(CircleGrid, meth, self.wrap(f"grid.{meth}", orig))
            undo.append((CircleGrid, meth, orig))

        def uninstall():
            for ns, attr, obj in reversed(undo):
                setattr(ns, attr, obj)

        return uninstall

    def self_times(self) -> list:
        """Duration minus the time covered by direct children, per span."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def self_time_by_group(self) -> dict:
        """group -> {span name: total self time}, largest first."""
        totals = defaultdict(lambda: defaultdict(float))
        for s, t in zip(self.spans, self.self_times()):
            totals[s[4]][s[0]] += t
        return {g: dict(sorted(d.items(), key=lambda kv: -kv[1])) for g, d in totals.items()}

    def write_spans(self, path: str):
        """One CSV line per span: name,start,end,parent,group (seconds, perf_counter)."""
        with gzip.open(path, "wt") as fh:
            fh.write("name,start,end,parent,group\n")
            for name, t0, t1, parent, group, _ in self.spans:
                fh.write(f"{name},{t0:.7f},{t1:.7f},{parent},{group}\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer counters and times, per traced pass.

    `*_s` metrics are inclusive times of the named calls, except
    `grid.fft_s`, `operators.norm_p2_s` and `experiments.self_s`, which are
    self times.  Byte counts come from array sizes, not from hardware
    counters, hence the `_computed` suffix.
    """
    spans = tracer.spans
    self_t = tracer.self_times()
    calls = defaultdict(int)
    incl = defaultdict(float)
    selft = defaultdict(float)
    for s, t in zip(spans, self_t):
        calls[s[0]] += 1
        incl[s[0]] += s[2] - s[1]
        selft[s[0]] += t

    def notes(name):  # calls that raised have no note
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    fft = ("grid.analyze", "grid.synthesize")
    fft_samples = [n for name in fft for n in notes(name)]
    degrees = notes("opuc.szego_recursion")
    power = notes("operators.power_method_lp")
    fits_names = {s[0] for s in spans if s[0].startswith("fits.")}
    fits_outer = sum(s[2] - s[1] for s in spans
                     if s[0] in fits_names and not (s[3] >= 0 and spans[s[3]][0] in fits_names))
    norm_p2 = sum(t for s, t in zip(spans, self_t)
                  if s[0] == "operators.operator_norm" and s[5] == "exact_svd_p2")
    materialize = ("operators.materialize_band", "operators.compress_band",
                   "operators.materialize_full")

    raw = {
        "grid.fft_calls": sum(calls[n] for n in fft),
        "grid.fft_s": sum(selft[n] for n in fft),
        "grid.fft_mb_computed": sum(2 * 16 * n for n in fft_samples) / MB,
        "weights.ap_calls": calls["weights.ap_characteristic"],
        "weights.ap_s": incl["weights.ap_characteristic"],
        "weights.poisson_s": incl["weights.poisson_characteristics"],
        "weights.bmo_s": incl["weights.bmo_norm"],
        "opuc.recursion_calls": calls["opuc.szego_recursion"],
        "opuc.recursion_degrees": sum(degrees),
        "opuc.recursion_s": incl["opuc.szego_recursion"],
        "opuc.poly_values_calls": calls["opuc.poly_values"],
        "opuc.poly_values_s": incl["opuc.poly_values"],
        "opuc.lp_norm_s": incl["opuc.weighted_lp_norm"],
        "opuc.project_calls": calls["opuc.project"],
        "opuc.project_s": incl["opuc.project"],
        "opuc.probe_s": incl["opuc.projection_norm_probe"],
        "opuc.gram_s": incl["opuc.gram_matrix"],
        "szego.function_s": incl["szego.szego_function"],
        "szego.qcr_s": incl["szego.estimate_qcr"],
        "clark.weight_calls": calls["clark.clark_weight"],
        "clark.weight_s": incl["clark.clark_weight"],
        "clark.gen_entropy_points": sum(notes("clark.generalized_entropy")),
        "clark.gen_entropy_s": incl["clark.generalized_entropy"],
        "operators.riesz_calls": calls["grid.riesz_project"],
        "operators.materialize_cols": sum(c for n in materialize for c in notes(n)),
        "operators.materialize_s": sum(incl[n] for n in materialize),
        "operators.norm_p2_s": norm_p2,
        "operators.power_calls": len(power),
        "operators.power_iters": sum(it for _, it in power),
        "operators.power_s": incl["operators.power_method_lp"],
        "fits.calls": sum(calls[n] for n in fits_names),
        "fits.s": fits_outer,
        "experiments.self_s": selft["experiments.run"],
        "experiments.rows": sum(rows for _, rows in notes("experiments.run")),
    }
    for name in TIMED_EXPERIMENTS:
        raw[f"experiments.{name}_s"] = sum(s[2] - s[1] for s in spans
                                           if s[0] == "experiments.run" and s[5]
                                           and s[5][0] == name)
    out = {k: v / passes for k, v in raw.items()}
    # peak table size and a ratio are not additive over passes
    out["opuc.table_mb_computed"] = max(((n + 1) ** 2 * 16 / MB for n in degrees), default=0.0)
    out["operators.power_converged_frac"] = (
        sum(conv for conv, _ in power) / len(power) if power else 0.0)
    return out
