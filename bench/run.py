"""Benchmark for opuckit, run from the root of a checkout.

    python3 bench/run.py --workload suite14 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

Workloads (see bench/README.md for why each was chosen):
  suite14     the nine acceptance experiments at m = 14, default specs
  steklov18   fh_growth and pcr_upper_trend at m = 18, n up to 4096
  harmonic16  A_p, Poisson, BMO, Szego and Clark library calls at m = 16

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run.  Lines before it
give the same numbers for people, under their experiment names, plus the
environment.  The full record (passes, every check, flags, environment,
self time per phase) goes to .bench_out/BENCH_<workload>_seed<n>_trace<t>.json.

The program is measured from source in src/, in worker processes with the
BLAS thread variables set to the number of usable CPUs and everything else
(the allocator included) as the caller's environment has it.  setup_s is
the median over SETUP_SAMPLES fresh processes of the time from process
start to the end of set-up.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

from envinfo import OUT_DIR, ROOT, THREAD_VARS, nproc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("suite14", "steklov18", "harmonic16")
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 60.0
# one invocation may take --seconds plus this: set-up samples, the checks,
# the last pass (which may start just before --seconds is up) and the two
# passes that always run
RUN_SLACK_S = 135.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("_mb_computed") or metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_frac"):
        return "fraction"
    return "count"


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(nproc())
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list, timeout: float) -> tuple:
    """Run the worker; returns (seconds from start to READY, stdout after READY)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=child_env())
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {' '.join(args)} exited with code {code}")
    return ready_s, rest


def run_workload(name: str, seed: int, seconds: float, trace: int, small: bool) -> tuple:
    """Returns (the contract's result object, the full record)."""
    deadline = time.perf_counter() + seconds + RUN_SLACK_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if small:
        common.append("--small")
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(spawn(common + ["--setup-only"], SETUP_TIMEOUT_S)[0])
    os.makedirs(OUT_DIR, exist_ok=True)
    ready_s, out = spawn(common + ["--trace", str(trace)], deadline - time.perf_counter())
    setups.append(ready_s)
    try:
        rec = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"worker for {name} printed no result") from None
    rec["setup_samples_s"] = setups

    failed = sum(not c["pass"] for c in rec["checks"])
    attempted = len(rec["checks"])
    if trace:
        values = rec["trace"]["metrics"]
    else:
        values = {
            "wall_s": statistics.median(sum(p.values()) for p in rec["passes"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
    metrics = {k: {"value": v, "unit": END_TO_END.get(k) or unit_of(k)} for k, v in values.items()}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    rec["result"] = result
    rec["fail_frac"] = failed / attempted if attempted else 1.0
    with open(os.path.join(OUT_DIR, f"BENCH_{name}_seed{seed}_trace{trace}.json"), "w") as fh:
        json.dump(rec, fh, indent=1)
    return result, rec


def summary_lines(rec: dict) -> list:
    res = rec["result"]
    out = [f"{rec['workload']}: seed {rec['seed']}, {len(rec['passes'])} pass(es), "
           f"checks {res['attempted'] - res['failed']}/{res['attempted']} passed, "
           f"{len(rec['flags'])} flag(s)"]
    for k, m in res["metrics"].items():
        out.append(f"  {k:<34} {m['value']:.6g} {m['unit']}")
    out.append(f"  {'fail_frac':<34} {rec['fail_frac']:.6g} fraction")
    for phase in rec["passes"][0]:
        median = statistics.median(p[phase] for p in rec["passes"])
        out.append(f"  {phase + '_s':<34} {median:.6g} s (median pass)")
    for c in rec["checks"]:
        if not c["pass"]:
            out.append(f"  FAIL {c['name']}: value={c['value']} threshold={c['threshold']}")
    for fl in rec["flags"]:
        out.append(f"  FLAG {fl}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="small grids, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "opuckit", "__init__.py")):
        print(f"bench: no opuckit sources at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, rec = run_workload(name, args.seed, args.seconds, args.trace, args.small)
            results[name] = result
            print("\n".join(summary_lines(rec)))
            print("env " + json.dumps(rec["env"]))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
