"""CLI handlers of the Seifert-matrix commands: ``alexander``, ``classify``,
``mmr`` and ``altsum``.

Each handler takes the parsed arguments and returns (exit code, payload,
human lines); ``cli.main`` imports this module only when it runs one of
these commands.
"""

from __future__ import annotations

import json

from . import seifert
from ._value import InputError, data_lines, int_tokens, json_int, read_json, read_text, token_error


def read_matrix_file(source: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Matrix format: first value g, then 2g rows of 2g integers."""
    lines = [(lineno, body) for lineno, body in data_lines(read_text(source)) if body.strip()]
    if not lines:
        raise InputError("line 1, col 1: empty matrix file")
    try:
        genus = int(lines[0][1].split()[0])
    except ValueError:
        raise token_error(*lines[0], 0, "genus must be an integer") from None
    if genus < 0:
        raise token_error(*lines[0], 0, "genus must be >= 0")
    entries = []
    for lineno, body in lines:
        entries += int_tokens(lineno, body, "bad matrix entry {tok!r}")
    del entries[0]  # the genus
    size = 2 * genus
    if len(entries) != size * size:
        raise InputError(f"expected {size * size} entries for genus {genus}, got {len(entries)}")
    return genus, tuple(tuple(entries[i * size: (i + 1) * size]) for i in range(size))


def read_laurent_file(source: str) -> seifert.LaurentPolynomial:
    """Laurent format: min exponent alone on one line, coefficient run on the next."""
    lines = [(lineno, body) for lineno, body in data_lines(read_text(source)) if body.strip()]
    if len(lines) < 2:
        raise InputError("laurent file needs a min-exponent line and a coefficient line")
    if len(lines[0][1].split()) > 1:
        raise token_error(*lines[0], 1, "stray token {tok!r}")
    if len(lines) > 2:
        raise token_error(*lines[2], 0, "stray token {tok!r}")
    (min_exp,) = int_tokens(*lines[0], "bad laurent polynomial data")
    coeffs = int_tokens(*lines[1], "bad laurent polynomial data")
    return seifert.LaurentPolynomial.from_coefficient_list(min_exp, coeffs)


def alexander(args):
    genus, rows = read_matrix_file(args.matrix)
    delta = seifert.alexander(seifert.SeifertMatrix(genus, rows))
    min_exp, coeffs = delta.coefficient_list()
    payload = {"min_exp": min_exp, "coeffs": list(coeffs), "pretty": delta.pretty()}
    return 0, {"genus": genus, "alexander": payload}, [delta.pretty()]


def classify(args):
    genus, rows = read_matrix_file(args.matrix)
    matrix = seifert.symmetrize(rows) if args.symmetrize else rows
    form = seifert.classify_form(matrix, genus)
    return 0, {"genus": genus, "form": form, "symmetrized": args.symmetrize}, [form]


def mmr(args):
    delta = read_laurent_file(args.laurent)
    series = seifert.mmr_series(delta, args.order)
    payload = {
        "order": args.order,
        "coefficients": [str(c) for c in series.coefficients],
    }
    lines = [f"h^{i}: {c}" for i, c in enumerate(series.coefficients)]
    return 0, payload, lines


def altsum(args):
    # here, not at module level: fractions (with decimal) loaded before
    # seifert.py compiles would raise every seifert job's peak RSS
    from fractions import Fraction

    data = read_json(args.values)
    try:
        values = {}
        for entry in data:
            subset = entry["subset"]
            # a string would iterate as its characters
            if not isinstance(subset, list) or not all(map(json_int, subset)):
                raise ValueError(f"subset {json.dumps(subset)} is not a list of integers")
            values[tuple(subset)] = Fraction(str(entry["value"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad alternating-sum data: {exc}") from exc
    total = seifert.alternating_sum(values)
    return 0, {"sum": str(total)}, [str(total)]
