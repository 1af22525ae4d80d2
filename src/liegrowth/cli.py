"""Command-line interface.

Subcommands:

* ``dims``      — graded and cumulative dimensions of the free metabelian algebra
* ``growth``    — exact filtration growth for a chosen model
* ``euler-fit`` — enveloping-algebra coefficient growth and its stretched exponent
* ``verify``    — relation/embedding/model-law suites with witness reporting

``dims`` and ``growth`` write CSV, or JSON with ``--format json``;
``euler-fit`` and ``verify`` always write JSON.

``main`` may be called many times in one process, as the benchmark and the
tests do; it builds its parser once, on the first call, and reuses it.

Exit codes: 0 success, 1 verification failure, 2 usage error. A failed
internal cross-check (an ``ArithmeticError``) is a verification failure;
bad arguments and unreadable files are usage errors. Output is
deterministic byte-for-byte for a fixed configuration: rows are emitted in a
fixed order and JSON keys are written in a fixed order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from decimal import Decimal

from . import growth as growthmod
from . import metabelian, series
from .presentations import (
    check_presentation,
    standard_tower_instances,
    tower_commutation_report,
    wplus_presentation,
    wreath_presentation,
)
from .wreath import MODE_W, MODE_WPLUS, RelationReport, certify_embedding, model_laws_report


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write one text, or lines as they are made, to `out` or stdout.

    A str is written whole: `writelines` would take it one character at a time.
    """
    with nullcontext(sys.stdout) if out is None else open(out, "w") as fh:
        if isinstance(text, str):
            fh.write(text)
        else:
            fh.writelines(text)


def _csv(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The CSV lines of the rows, each ending in a newline, made one at a time."""
    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(map(str, row)) + "\n"


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit_table(args: argparse.Namespace, meta: dict, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """CSV of the rows, or JSON of meta followed by the rows as objects."""
    if args.format == "csv":
        _emit(_csv(header, rows), args.out)
    else:
        _emit(_json({**meta, "rows": [dict(zip(header, row)) for row in rows]}), args.out)


# ---------------------------------------------------------------- subcommands

def _cmd_dims(args: argparse.Namespace) -> int:
    gamma = metabelian.growth(args.d, args.max_n)
    rows = [(n, gamma[n] - gamma[n - 1], gamma[n]) for n in range(1, args.max_n + 1)]
    meta = {"command": "dims", "d": args.d, "max_n": args.max_n}
    _emit_table(args, meta, ("n", "dim", "gamma"), rows)
    return 0


def _cmd_growth(args: argparse.Namespace) -> int:
    report = growthmod.growth_bfs(args.mode, args.d, args.max_n)
    wplus = args.mode == MODE_WPLUS
    rows = []
    for n in range(1, args.max_n + 1):
        row = [n, report.gamma[n], report.graded[n]]
        if wplus:
            spanning = growthmod.wplus_spanning_count(args.d, n)
            bound = growthmod.wplus_growth_bound(args.d, n)
            if not spanning <= report.gamma[n] <= bound:
                raise ArithmeticError(
                    f"gamma({n}) = {report.gamma[n]} is outside [spanning count {spanning}, growth bound {bound}]"
                )
            row += [spanning, bound]
        rows.append(tuple(row))
    header = ("n", "gamma", "a_n") + (("spanning_count", "growth_bound") if wplus else ())
    meta = {"command": "growth", "mode": args.mode, "d": args.d, "max_n": args.max_n}
    _emit_table(args, meta, header, rows)
    return 0


def _fit_points(fit_n: int) -> list[int]:
    points = []
    n = 16
    while n <= fit_n:
        points.append(n)
        n *= 2
    if not points or points[-1] != fit_n:
        points.append(fit_n)
    return points


def _cmd_euler_fit(args: argparse.Namespace) -> int:
    mode = "input" if args.input is not None else args.mode
    if mode == "input":
        a = _read_graded_csv(args.input, args.fit_n)
    elif mode == growthmod.MODE_METABELIAN:
        if args.d == 1:
            raise ValueError(
                "the metabelian algebra on 1 generator is one-dimensional, so every b_n is 1"
                " and there is no growth exponent to fit; use --d 2 or more"
            )
        a = [0] + [metabelian.graded_dim(args.d, n) for n in range(1, 2 * args.fit_n + 1)]
    else:
        a = growthmod.wplus_graded_dims(args.d, 2 * args.fit_n)
    # a model's default target is the exponent d/(d+1) of its growth type
    target = args.d / (args.d + 1) if args.target is None and mode != "input" else args.target
    b = series.euler_transform(a)
    fit = series.fit_stretched_exponent(b, _fit_points(args.fit_n))
    passed = None if target is None else abs(fit.final - target) <= args.tolerance
    report = {
        "command": "euler-fit",
        "mode": mode,
        "d": args.d,
        "fit_n": args.fit_n,
        "method": fit.method,
        "classification": fit.classification,
        "points": [{"n": n, "alphaHat": alpha} for n, alpha in fit.estimates],
        "final": fit.final,
        "target": target,
        "tolerance": args.tolerance,
        "pass": passed,
    }
    _emit(_json(report), args.out)
    if args.dump_coeffs is not None:
        # str() refuses an int past 4,300 digits by default, and the limit is
        # global to the interpreter; Decimal holds it exactly and prints it whole
        rows = ((n, Decimal(v)) for n, v in enumerate(b))
        _emit(_csv(("n", "b_n"), rows), args.dump_coeffs)
    return 0 if passed in (True, None) else 1


def _read_graded_csv(path: str, fit_n: int) -> list[int]:
    """Read `n,a_n` rows into the indexed-list convention (a[0] = 0), up to n = 2 * fit_n.

    Each n >= 1 may appear once; a missing n reads as a_n = 0. The file must
    reach n = 2 * fit_n, and every row is checked, but the list stops there:
    b_n depends only on a_1..a_n, and the fit reads b up to 2 * fit_n.
    """
    values: dict[int, int] = {}
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    start = 1 if lines and lines[0].lower().replace(" ", "") == "n,a_n" else 0
    for ln in lines[start:]:
        parts = ln.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad csv row: {ln!r}")
        n = int(parts[0])
        if n < 1:
            raise ValueError(f"bad csv row: {ln!r} (n must be >= 1)")
        if n in values:
            raise ValueError(f"bad csv row: {ln!r} (n = {n} given twice)")
        values[n] = int(parts[1])
    if not values:
        raise ValueError("empty sequence file")
    needed, n_max = 2 * fit_n, max(values)
    if n_max < needed:
        raise ValueError(f"input provides a_n up to n = {n_max}, need {needed} for fit_n = {fit_n}")
    if min(values.values()) < 0:
        raise ValueError("graded dimensions must be nonnegative")
    return [0] + [values.get(n, 0) for n in range(1, needed + 1)]


def _towers_report(args: argparse.Namespace) -> RelationReport:
    """The base and step tower instances, checked up to --bound-s, as one report."""
    bounds = {"i_max": args.bound_s, "j_max": args.bound_s}
    report = RelationReport("towers", MODE_WPLUS, args.d, args.d, bounds)
    for name, a, b, t, u in standard_tower_instances(args.d):
        rep = tower_commutation_report(a, b, t, u, args.bound_s)
        report.checked += rep.checked
        report.failures += [f"{name}: {msg}" for msg in rep.failures]
    return report


# suite -> (its report from the parsed args, {verify flag it reads: default});
# --mode maps to the modes the suite supports, default first. The reports
# look the suite functions up when called, so they can be replaced by name.
SUITES = {
    "presentation": (
        lambda args: check_presentation(
            wreath_presentation(args.d, args.d, pair_len_max=args.bound_s)
            if args.mode == MODE_W
            else wplus_presentation(args.d, args.d, s_max=args.bound_s)
        ),
        {"mode": (MODE_WPLUS, MODE_W), "bound_s": 5},
    ),
    "towers": (_towers_report, {"mode": (MODE_WPLUS,), "bound_s": 5}),
    "embedding": (
        lambda args: certify_embedding(args.d, args.max_n, seed=args.seed, trials=args.trials),
        {"mode": (MODE_W,), "max_n": 6, "seed": 0, "trials": 25},
    ),
    "model-laws": (
        lambda args: model_laws_report(args.d, args.mode, seed=args.seed, trials=args.trials),
        {"mode": (MODE_WPLUS, MODE_W), "seed": 0, "trials": 50},
    ),
}
VERIFY_FLAGS = ("mode", "bound_s", "max_n", "seed", "trials")


def _cmd_verify(args: argparse.Namespace) -> int:
    report = SUITES[args.suite][0](args)
    _emit(_json(report.to_dict()), args.out)
    return 0 if report.passed else 1


# --------------------------------------------------------------------- parser

# Built once per process: parsing leaves the parser unchanged. The handlers
# set as `fn` and the suite reports behind `--suite` look up `growthmod.*`,
# `check_presentation`, `model_laws_report` and the other suite functions by
# name when called, so replacing one by name still takes effect after the
# first call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liegrowth",
        description="Exact growth computations for metabelian and wreath-product Lie models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--d", type=int, default=2, help="number of generators (default 2)")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_dims = sub.add_parser("dims", help="metabelian graded dimensions and growth")
    add_common(p_dims)
    p_dims.add_argument("--format", choices=("csv", "json"), default="csv")
    p_dims.add_argument("--max-n", type=int, default=12)
    p_dims.set_defaults(fn=_cmd_dims)

    p_growth = sub.add_parser("growth", help="exact filtration growth of a model")
    add_common(p_growth)
    p_growth.add_argument("--format", choices=("csv", "json"), default="csv")
    p_growth.add_argument("--max-n", type=int, default=12)
    p_growth.add_argument(
        "--mode",
        choices=growthmod.GROWTH_MODES,
        default=MODE_WPLUS,
    )
    p_growth.set_defaults(fn=_cmd_growth)

    p_fit = sub.add_parser("euler-fit", help="enveloping-series growth exponent")
    add_common(p_fit)
    # --mode and --d choose the model; _check_use fills in Wplus and 2, or rejects them with --input
    p_fit.set_defaults(d=None)
    p_fit.add_argument(
        "--mode",
        choices=(growthmod.MODE_METABELIAN, MODE_WPLUS),
        default=None,
        help="model (default Wplus)",
    )
    p_fit.add_argument("--fit-n", type=int, default=2048, help="largest estimator point")
    p_fit.add_argument("--input", default=None, help="CSV of n,a_n rows instead of a model")
    p_fit.add_argument("--target", type=float, default=None)
    p_fit.add_argument("--tolerance", type=float, default=0.1)
    p_fit.add_argument("--dump-coeffs", default=None, help="also write n,b_n CSV here")
    p_fit.set_defaults(fn=_cmd_euler_fit)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    add_common(p_verify)
    p_verify.add_argument("--format", choices=("json",), default="json", help="the report is JSON")
    p_verify.add_argument("--suite", choices=tuple(SUITES), default="presentation")
    # each suite reads some of these; _check_use fills in its defaults and rejects the rest
    p_verify.add_argument("--mode", choices=(MODE_W, MODE_WPLUS), default=None, help="model (default by suite)")
    p_verify.add_argument("--bound-s", type=int, default=None, help="relator family bound")
    p_verify.add_argument("--max-n", type=int, default=None, help="embedding degree bound")
    p_verify.add_argument("--seed", type=int, default=None, help="seed of the random checks")
    p_verify.add_argument("--trials", type=int, default=None, help="number of random checks")
    p_verify.set_defaults(fn=_cmd_verify)
    return parser


def _check_use(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject the flags that do not apply to the chosen use, and fill in the defaults of the rest."""
    if args.command == "euler-fit":
        if args.input is not None:
            for flag in ("mode", "d"):
                if getattr(args, flag) is not None:
                    parser.error(f"--{flag} chooses a model; it does not apply with --input")
            return
        args.mode = args.mode or MODE_WPLUS
        args.d = 2 if args.d is None else args.d
    elif args.command == "verify":
        reads = SUITES[args.suite][1]
        for flag in VERIFY_FLAGS:
            value = getattr(args, flag)
            if flag not in reads:
                if value is not None:
                    parser.error(f"--{flag.replace('_', '-')} is not read by --suite {args.suite}")
            elif flag == "mode":
                if value not in (None, *reads["mode"]):
                    modes = " or ".join(reads["mode"])
                    parser.error(f"--suite {args.suite} checks {modes}; --mode {value} does not apply")
                args.mode = value or reads["mode"][0]
            elif value is None:
                setattr(args, flag, reads[flag])


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_use(parser, args)
    for flag, low in (("d", 1), ("max_n", 1), ("fit_n", 1), ("bound_s", 0), ("trials", 0), ("tolerance", 0)):
        if (value := getattr(args, flag, None)) is not None and value < low:
            parser.error(f"--{flag.replace('_', '-')} must be >= {low}")
    # JSON has no nan or inf, and no fit passes a nan tolerance
    for flag in ("target", "tolerance"):
        if (value := getattr(args, flag, None)) is not None and not math.isfinite(value):
            parser.error(f"--{flag} must be a finite number")
    try:
        return args.fn(args)
    except ArithmeticError as exc:
        sys.stderr.write(f"verification failed: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        parser.exit(2, f"error: {exc}\n")
