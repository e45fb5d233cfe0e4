"""Command-line surface.

One executable with subcommands: classify and enumerate finite tables, run
axiom verification, decide the fixes-each-other property, emit flow
trajectories as CSV, and compare numeric against analytic brackets.
Machine-readable JSON/CSV goes to stdout, human summaries to stderr.
Exit codes: 0 success/pass, 1 structured negative result, 2 usage or I/O
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import finite
from .linalg import matrix_from_json, spectrum
from .realizations import REALIZATION_NAMES, make_realization
from .verify import (
    DEFAULT_PAIRS,
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    DEFAULT_STEP,
    NOETHER_GRID,
    NOETHER_TOL,
    PARAM_RANGE,
    _finite,
    integrate_flow,
    noether_suite,
    numeric_bracket,
    sample_flow,
    verify_axioms,
    write_trajectory_csv,
)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj))


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _parse_spectrum(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"bad spectrum {text!r}: {exc}") from None
    if not values:
        raise ValueError("spectrum must list at least one eigenvalue")
    return values


def _realization_from_args(args, x=None):
    eigenvalues, inferred = None, ""
    if args.spectrum is not None:
        eigenvalues = _parse_spectrum(args.spectrum)
    elif args.realization == "fixed-spectrum" and x is not None:
        # Infer the carrier's spectrum from the supplied element's JSON, x().
        eigenvalues = spectrum(matrix_from_json(x())).tolist()
        inferred = f"spectrum {eigenvalues} inferred from --x: "
    try:
        return make_realization(
            args.realization,
            dim=args.dim,
            bias=args.bias,
            body=args.body,
            eigenvalues=eigenvalues,
        )
    except ValueError as exc:  # name an inferred spectrum that the factory refuses
        raise ValueError(inferred + str(exc)) if inferred else exc


def _load_pair(args):
    x = functools.cache(lambda: _load_json(args.x))  # read once, after the flags are checked
    r = _realization_from_args(args, x)
    return r, r.decode(x()), r.decode(_load_json(args.y))


def cmd_classify(args) -> int:
    table = finite.MagmaTable.from_json(_load_json(args.file))
    report = finite.classify(table)
    _emit(report.to_json())
    if report.is_quandle:
        _say(f"order-{table.order} table: quandle")
        return 0
    kinds = [k for k, ok in (("shelf", report.is_shelf), ("spindle", report.is_spindle)) if ok]
    _say(f"order-{table.order} table: {', '.join(kinds) if kinds else 'not even a shelf'}"
         f" — {len(report.violations)} axiom(s) violated")
    return 1


def cmd_enumerate(args) -> int:
    tables = finite.enumerate_tables(args.order, args.kind, args.up_to_iso)
    for t in tables:
        _emit(t.to_json())
    _emit({
        "count": len(tables),
        "order": args.order,
        "kind": args.kind,
        "up_to_iso": args.up_to_iso,
    })
    scope = "isomorphism classes" if args.up_to_iso else "labeled tables"
    _say(f"{len(tables)} {args.kind} {scope} of order {args.order}")
    return 0


def cmd_verify(args) -> int:
    r = _realization_from_args(args)
    reports = verify_axioms(r, samples=args.samples, seed=args.seed, tol=args.tol)
    for rep in reports:
        _emit(rep.to_json())
        status = "PASS" if rep.passed else "FAIL"
        _say(f"{rep.axiom}: {status} (max residual {rep.max_residual:.3e},"
             f" tolerance {rep.tolerance:.1e})")
    return 0 if all(rep.passed for rep in reports) else 1


def cmd_noether(args) -> int:
    r = _realization_from_args(args)
    summary = noether_suite(
        r,
        pairs=args.pairs,
        seed=args.seed,
        t_samples=args.t_samples,
        t_max=args.t_max,
        tol=args.tol,
    )
    _emit(summary.to_json(encode=r.encode))
    if not summary.control_consistent:  # then no pair verdict means anything
        _say(f"{r.name}: the x = x control failed: a sample does not fix itself"
             f" within tol {args.tol:.1e}")
        return 1
    if summary.modes_agree is False:
        _say(f"{r.name}: the sampled and bracket criteria disagree on some pair")
        return 1
    if summary.all_consistent:
        _say(f"{r.name}: all {summary.pairs} pairs consistent")
        return 0
    _say(f"{r.name}: {summary.inconsistent_count} of {summary.pairs} pairs inconsistent")
    return 1


def cmd_flow(args) -> int:
    r, x, y = _load_pair(args)
    flow = integrate_flow if args.method == "rk4" else sample_flow
    traj = flow(r, x, y, args.t_end, args.steps)
    write_trajectory_csv(traj, r, sys.stdout)
    _say(f"{r.name}: {len(traj.times)} points on [0, {args.t_end}] via {args.method}")
    return 0


def cmd_bracket(args) -> int:
    r, x, y = _load_pair(args)
    numeric = numeric_bracket(r, x, y, args.h)
    # Every realization numeric_bracket accepts has an analytic bracket.
    analytic = _finite("analytic bracket", lambda: r.analytic_bracket(x, y))
    discrepancy = float(_finite("discrepancy", lambda: r.metric(numeric, analytic)))
    _say(f"{r.name}: bracket discrepancy {discrepancy:.3e} at h={args.h:g}")
    if not numeric.any() and analytic.any():  # not a norm, which can overflow on a finite bracket
        _say(f"{r.name}: numeric bracket is 0 at h={args.h:g}: x acting on y for +/-h rounds to one point")
    _emit({
        "realization": r.name,
        "h": args.h,
        "numeric": r.encode(numeric),
        "analytic": r.encode(analytic),
        "discrepancy": discrepancy,
    })
    return 0


def _add_realization_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--realization", required=True, choices=REALIZATION_NAMES)
    p.add_argument("--dim", type=int, default=2, help="carrier dimension where applicable")
    p.add_argument("--bias", type=float, default=0.5, help="mixing bias for convex-spindle")
    p.add_argument("--body", choices=("box", "simplex"), default="box",
                   help="convex body for convex-spindle")
    p.add_argument("--spectrum", default=None,
                   help="comma-separated eigenvalues for fixed-spectrum")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quandlekit",
        description="Finite and smooth self-distributive structures: classify, "
                    "enumerate, verify, and integrate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a binary-operation table")
    p.add_argument("file", help="JSON file with {'order': n, 'table': [[...]]}")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("enumerate", help="list all small structures of a kind")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--kind", required=True, choices=finite.KINDS)
    p.add_argument("--up-to-iso", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="sample the axioms of a realization")
    _add_realization_flags(p)
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=None,
                   help="override the realization's default tolerance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("noether", help="pairwise fixes-each-other consistency")
    _add_realization_flags(p)
    p.add_argument("--pairs", type=int, default=DEFAULT_PAIRS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--tol", type=float, default=NOETHER_TOL)
    p.add_argument("--t-samples", type=int, default=NOETHER_GRID)
    p.add_argument("--t-max", type=float, default=PARAM_RANGE)
    p.set_defaults(func=cmd_noether)

    p = sub.add_parser("flow", help="emit a flow trajectory as CSV")
    _add_realization_flags(p)
    p.add_argument("--x", required=True, help="JSON file: the acting element")
    p.add_argument("--y", required=True, help="JSON file: the initial element")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--method", choices=("closed", "rk4"), default="closed")
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("bracket", help="numeric vs analytic bracket at t=0")
    _add_realization_flags(p)
    p.add_argument("--x", required=True, help="JSON file: first element")
    p.add_argument("--y", required=True, help="JSON file: second element")
    p.add_argument("--h", type=float, default=DEFAULT_STEP, help="difference step")
    p.set_defaults(func=cmd_bracket)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, MemoryError, json.JSONDecodeError) as exc:
        _say(f"error: {str(exc) or type(exc).__name__}")
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
