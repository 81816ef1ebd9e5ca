"""Command-line experiment runner.

Subcommands map onto the experiment suite:

    a2          Fisher-Hartwig A_2 scaling and blow-up laws
    opuc        recursion diagnostics (Verblunsky table, Gram identity, oracle)
    entropy     polynomial entropy limit
    szego       strong Szego convergence
    steklov     weighted L^p growth trichotomy
    continuity  weight-continuity scaling of the weighted Riesz projection
    clark       Aleksandrov-Clark / duality checks
    projection  finite-section projection norm probes
    pcr         empirical boundedness-threshold trend

Exit codes: 0 all checks pass; 2 flagged cells; 3 failed thresholds;
4 input or precondition errors.
"""

import argparse
import sys

from .experiments import EXPERIMENTS, ExperimentSpec, SpecError, run
from .weights import ARC_KINDS

# subcommand -> experiment; each takes --grid-log2, --seed, --out, --format and the
# option of each input its experiment reads (EXPERIMENTS); any other option exits 4
_SUBCOMMANDS = {"a2": "a2_scaling", "opuc": "opuc_diagnostics", "entropy": "entropy_limit",
                "szego": "strong_szego", "steklov": "fh_growth", "continuity": "continuity",
                "clark": "clark_duality", "projection": "projection_bound",
                "pcr": "pcr_upper_trend"}


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _parse_p_list(text: str) -> tuple:
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        raise _ArgumentError(f"cannot parse p list {text!r}") from None


def _degree_ladder(nmax: int) -> tuple:
    """The n-grid that --nmax sets: the degrees of the ladder up to nmax, or nmax alone."""
    return tuple(n for n in (64, 91, 128, 181, 256, 362, 512) if n <= nmax) or (nmax,)


_NMAX = dict(type=int, metavar="INT", help="maximal polynomial degree override")
# spec input -> (its option, the option's arguments)
_INPUT_OPTIONS = {
    "family": ("--family", dict(metavar="NAME", help="weight family (default fisher_hartwig)")),
    "beta": ("--beta", dict(type=float, metavar="FLOAT", help="Fisher-Hartwig exponent override")),
    "a": ("--a", dict(type=float, metavar="FLOAT", help="Bernstein-Szego parameter")),
    "nmax": ("--nmax", _NMAX),
    "n_grid": ("--nmax", _NMAX),
    "p_grid": ("--p", dict(type=_parse_p_list, metavar="FLOAT[,FLOAT...]",
                           help="exponent or comma list of exponents")),
    "arcs": ("--arcs", dict(choices=ARC_KINDS, default="dyadic")),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="opuckit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, name in _SUBCOMMANDS.items():
        # no abbreviations: --a must not stand for a2's --arcs
        p = sub.add_parser(cmd, help=f"run the {name} experiment", allow_abbrev=False)
        p.add_argument("--grid-log2", type=int, default=14, metavar="INT",
                       help="log2 of the grid size (default 14)")
        for key in EXPERIMENTS[name].reads:
            option, kwargs = _INPUT_OPTIONS[key]
            p.add_argument(option, dest=key, **kwargs)
        p.add_argument("--seed", type=int, default=0, metavar="U64")
        p.add_argument("--out", metavar="PATH", help="write the machine-readable record here")
        p.add_argument("--format", choices=("csv", "json"), default="json")
    return parser


def spec_from_args(args) -> ExperimentSpec:
    name = _SUBCOMMANDS[args.command]
    opts = vars(args)
    inputs = {k: opts[k] for k in EXPERIMENTS[name].reads if opts[k] is not None}
    if "n_grid" in inputs:
        inputs["n_grid"] = _degree_ladder(inputs["n_grid"])
    if "a" in inputs:
        inputs.setdefault("family", "bernstein_szego")
    return ExperimentSpec(name=name, grid_log2=args.grid_log2, seed=args.seed, out=args.out,
                          fmt=args.format, **inputs)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        spec = spec_from_args(args)
        record = run(spec)
    except (_ArgumentError, SpecError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    for line in record.summary_lines():
        print(line)
    if spec.out:
        print(f"record written to {spec.out} ({spec.fmt})")
    return record.exit_code


if __name__ == "__main__":
    sys.exit(main())
