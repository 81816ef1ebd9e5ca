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

# subcommand -> (experiment, the options it reads besides --grid-log2,
# --seed, --out and --format); any other option exits 4
_SUBCOMMANDS = {
    "a2": ("a2_scaling", ("--arcs",)),
    "opuc": ("opuc_diagnostics", ("--family", "--beta", "--a", "--nmax")),
    "entropy": ("entropy_limit", ("--beta", "--nmax")),
    "szego": ("strong_szego", ("--beta", "--nmax")),
    "steklov": ("fh_growth", ("--beta", "--p", "--nmax")),
    "continuity": ("continuity", ()),
    "clark": ("clark_duality", ()),
    "projection": ("projection_bound", ("--beta", "--p", "--nmax")),
    "pcr": ("pcr_upper_trend", ("--p", "--nmax")),
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


_OPTIONS = {
    "--grid-log2": dict(type=int, default=14, metavar="INT",
                        help="log2 of the grid size (default 14)"),
    "--beta": dict(type=float, metavar="FLOAT", help="Fisher-Hartwig exponent override"),
    "--a": dict(type=float, metavar="FLOAT", help="Bernstein-Szego parameter"),
    "--family": dict(metavar="NAME", help="weight family (default fisher_hartwig)"),
    "--nmax": dict(type=int, metavar="INT", help="maximal polynomial degree override"),
    "--p": dict(type=_parse_p_list, metavar="FLOAT[,FLOAT...]",
                help="exponent or comma list of exponents"),
    "--seed": dict(type=int, default=0, metavar="U64"),
    "--out": dict(metavar="PATH", help="write the machine-readable record here"),
    "--format": dict(choices=("csv", "json"), default="json"),
    "--arcs": dict(choices=("dyadic", "full"), default="dyadic"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="opuckit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, (name, options) in _SUBCOMMANDS.items():
        # no abbreviations: --a must not stand for a2's --arcs
        p = sub.add_parser(cmd, help=f"run the {name} experiment", allow_abbrev=False)
        for opt in ("--grid-log2", *options, "--seed", "--out", "--format"):
            p.add_argument(opt, **_OPTIONS[opt])
    return parser


def spec_from_args(args) -> ExperimentSpec:
    name = _SUBCOMMANDS[args.command][0]
    opts = vars(args)
    params = {k: opts[k] for k in ("beta", "a", "nmax") if opts.get(k) is not None}
    n_grid = ()
    if "nmax" in params and name != "opuc_diagnostics":
        base = [64, 91, 128, 181, 256, 362, 512]
        n_grid = tuple(n for n in base if n <= params["nmax"]) or (params["nmax"],)
    family = opts.get("family") or ("bernstein_szego" if "a" in params else "fisher_hartwig")
    return ExperimentSpec(
        name=name,
        family=family,
        params=params,
        grid_log2=args.grid_log2,
        n_grid=n_grid,
        p_grid=tuple(opts.get("p") or ()),
        seed=args.seed,
        out=args.out,
        fmt=args.format,
        arcs=opts.get("arcs", "dyadic"),
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
