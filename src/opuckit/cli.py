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

from .experiments import ExperimentSpec, SpecError, run

_SUBCOMMANDS = {
    "a2": "a2_scaling",
    "opuc": "opuc_diagnostics",
    "entropy": "entropy_limit",
    "szego": "strong_szego",
    "steklov": "fh_growth",
    "continuity": "continuity",
    "clark": "clark_duality",
    "projection": "projection_bound",
    "pcr": "pcr_upper_trend",
}


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


def build_parser() -> _Parser:
    parser = _Parser(prog="opuckit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, name in _SUBCOMMANDS.items():
        p = sub.add_parser(cmd, help=f"run the {name} experiment")
        p.add_argument("--grid-log2", type=int, default=14, metavar="INT",
                       help="log2 of the grid size (default 14)")
        p.add_argument("--beta", type=float, default=None, metavar="FLOAT",
                       help="Fisher-Hartwig exponent override")
        p.add_argument("--a", type=float, default=None, metavar="FLOAT",
                       help="Bernstein-Szego parameter (opuc diagnostics)")
        p.add_argument("--family", default=None, metavar="NAME",
                       help="weight family (opuc diagnostics; default fisher_hartwig)")
        p.add_argument("--nmax", type=int, default=None, metavar="INT",
                       help="maximal polynomial degree override")
        p.add_argument("--p", type=_parse_p_list, default=None, metavar="FLOAT[,FLOAT...]",
                       help="exponent or comma list of exponents")
        p.add_argument("--seed", type=int, default=0, metavar="U64")
        p.add_argument("--out", default=None, metavar="PATH",
                       help="write the machine-readable record here")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--arcs", choices=("dyadic", "full"), default="dyadic")
    return parser


def spec_from_args(args) -> ExperimentSpec:
    name = _SUBCOMMANDS[args.command]
    params = {}
    if args.beta is not None:
        params["beta"] = args.beta
    if args.a is not None:
        params["a"] = args.a
    if args.nmax is not None:
        params["nmax"] = args.nmax
    n_grid = ()
    if args.nmax is not None and name in ("fh_growth", "entropy_limit", "strong_szego",
                                          "projection_bound", "pcr_upper_trend"):
        base = [64, 91, 128, 181, 256, 362, 512]
        n_grid = tuple(n for n in base if n <= args.nmax) or (args.nmax,)
    family = args.family or ("bernstein_szego" if args.a is not None else "fisher_hartwig")
    return ExperimentSpec(
        name=name,
        family=family,
        params=params,
        grid_log2=args.grid_log2,
        n_grid=n_grid,
        p_grid=tuple(args.p) if args.p else (),
        seed=args.seed,
        out=args.out,
        fmt=args.format,
        arcs=args.arcs,
    )


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
