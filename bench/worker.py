"""One benchmark process: set up a workload, then measure it closed-loop.

`run.py` starts this script with the BLAS thread variables set and `src/`
on the path.  Protocol on stdout: the line `READY` as soon as set-up ends
(import, thresholds, inputs, one BLAS/FFT warm-up), then, unless
`--setup-only`, one JSON line with the passes, checks, flags, peak memory
and environment.  Everything else goes to stderr.

Passes run back to back in this one process (one caller, closed loop).
A new pass starts only while the elapsed time plus the median pass time
stays within `--seconds`; the first two passes always run (one per half
with `--trace 1`).  With `--trace 1`
half the time runs untraced passes and half runs traced ones, and the
ratio of their median pass times gives the tracing overhead.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager

import numpy as np

import envinfo
import tracer as tracing
import workloads


class PassTimer:
    """Wall time per named phase of one pass; opens the tracer's group."""

    def __init__(self, tracer=None):
        self.phases = {}
        self._tracer = tracer

    @contextmanager
    def phase(self, name: str):
        if self._tracer is not None:
            self._tracer.group = name
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0
            if self._tracer is not None:
                self._tracer.group = None


def warm_up(log2: int):
    """First FFT at the workload's size and first BLAS/LAPACK calls, untimed."""
    import scipy.linalg  # noqa: F401 - imported lazily by MomentSequence.toeplitz_gram

    rng = np.random.default_rng(0)
    np.fft.ifft(np.fft.fft(rng.standard_normal(1 << log2)))
    a = rng.standard_normal((512, 64)) + 1j * rng.standard_normal((512, 64))
    np.linalg.svd(a, compute_uv=False)
    np.linalg.lstsq(a.real, a.real[:, 0], rcond=None)


def measure(wl, seconds: float, tracer=None, min_passes: int = 1) -> tuple:
    """Passes, checks, flags, and the peak RSS after the first pass.

    The peak is read before the first pass's checks, whose oracles (such
    as a full Gram matrix at m = 18) may need more memory than the
    workload itself.
    """
    passes, checks, flags = [], [], []
    peak = None
    start = time.perf_counter()
    while True:
        timer = PassTimer(tracer)
        out = wl.run_pass(timer)
        if peak is None:  # MB of 10^6 bytes; ru_maxrss is in KiB
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        c, f = wl.check(out)
        del out
        passes.append(timer.phases)
        checks.extend(c)
        flags.extend(f)
        median = statistics.median(sum(p.values()) for p in passes)
        if len(passes) >= min_passes and time.perf_counter() - start + median > seconds:
            return passes, checks, flags, peak


def plain(v):
    """Strict-JSON form of a check value: non-finite floats become null."""
    if isinstance(v, (bool, np.bool_)):
        return bool(v)
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    if isinstance(v, (list, tuple, np.ndarray)):
        return [plain(x) for x in v]
    if isinstance(v, dict):
        return {str(k): plain(x) for k, x in v.items()}
    return v if isinstance(v, str) or v is None else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload](args.seed, small=args.small)
    wl.setup()
    warm_up(wl.log2)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": wl.name, "seed": args.seed, "small": args.small}
    if args.trace:
        base, checks, flags, peak = measure(wl, args.seconds / 2)
        tr = tracing.Tracer()
        uninstall = tr.install()
        try:
            traced, c, f, _ = measure(wl, args.seconds / 2, tr)
        finally:
            uninstall()
        checks += c
        flags += f
        median_base = statistics.median(sum(p.values()) for p in base)
        median_traced = statistics.median(sum(p.values()) for p in traced)
        metrics = tracing.layer_metrics(tr, len(traced))
        metrics["trace.overhead_frac"] = median_traced / median_base - 1.0
        result["trace"] = {
            "metrics": metrics,
            "untraced_passes": base,
            "spans": len(tr.spans),
            "self_time_by_group": {g: dict(list(d.items())[:8])
                                   for g, d in tr.self_time_by_group().items()},
        }
        spans_file = os.path.join(envinfo.OUT_DIR, f"spans_{wl.name}_seed{args.seed}.csv.gz")
        tr.write_spans(spans_file)
        result["trace"]["spans_file"] = os.path.relpath(spans_file, envinfo.ROOT)
        passes = traced
    else:
        # wall_s is the median pass; at least two, so that one slow pass is not all
        passes, checks, flags, peak = measure(wl, args.seconds, min_passes=2)

    result["passes"] = passes
    result["checks"] = [{**c, "value": plain(c["value"]), "threshold": plain(c["threshold"])}
                        for c in checks]
    result["flags"] = sorted(set(flags))
    result["peak_rss_mb"] = peak
    result["env"] = envinfo.collect(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
