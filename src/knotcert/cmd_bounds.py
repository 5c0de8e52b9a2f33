"""CLI handlers of the ``bounds`` commands.

Each handler takes the parsed arguments and returns (exit code, payload,
human lines); ``cli.main`` imports this module only when it runs one of
these commands.
"""

from __future__ import annotations

from . import bounds
from ._value import InputError, generator_subset


def _report(args, value):
    return 0, {"fn": args.subcommand, "value": value}, [str(value)]


def q(args):
    return _report(args, bounds.q(args.m))


def t(args):
    return _report(args, bounds.t(args.n))


def q_param(args):
    return _report(args, bounds.q_param(args.n, args.k))


def l_n_s(args):
    return _report(args, bounds.l_n_S(args.q))


def conflict_max(args):
    try:
        value = bounds.conflict_max(args.s)
    except OverflowError as exc:
        raise InputError(f"bounds conflict-max: s = {args.s} is out of range: {exc}") from exc
    return _report(args, value)


def ratio_check(args):
    return _report(args, bounds.ratio_check(args.w_y, args.s_y))


def good_arc_bound(args):
    return _report(args, bounds.good_arc_bound(args.m, args.k, args.s, args.embedded))


def product_bound_check(args):
    return _report(args, bounds.product_bound_check(args.m, args.k, args.r, args.s))


def check_inequalities(args):
    report = bounds.check_inequalities(args.n)
    payload = {
        "n": report.n,
        "q_bound_holds": report.q_bound_holds,
        "q_param_bounds_hold": report.q_param_bounds_hold,
        "violations": list(report.violations),
        "l_bound_argument": str(report.l_bound_argument),
        "all_hold": report.all_hold,
    }
    line = "all inequalities hold" if report.all_hold else "; ".join(report.violations)
    return (0 if report.all_hold else 1), payload, [line]


def partition_k(args):
    try:
        gensets = [generator_subset(part) for part in args.factors.split("|") if part.strip()]
    except InputError as exc:
        raise InputError(f"bounds partition-k: --factors: {exc}") from exc
    partition, k = bounds.partition_k(gensets)
    payload = {
        "k": k,
        "blocks": [list(b) for b in partition.blocks],
        "block_generator_counts": list(partition.block_generator_counts()),
    }
    return 0, payload, [f"k = {k}; blocks {payload['blocks']}"]
