"""CLI handlers of the Seifert-matrix commands: ``alexander``, ``classify``,
``mmr`` and ``altsum``.

Each handler takes the parsed arguments and returns (exit code, payload,
human lines); ``cli.main`` imports this module only when it runs one of
these commands.  ``mmr`` and the Laurent reader import ``series`` where
they use it, so an ``mmr`` job never compiles ``seifert``, a lazy layer
that loads on the first attribute the other three handlers read from it,
and ``classify`` and ``altsum`` never compile ``series``.

A handler loads every knotcert module it needs before ``fractions``:
``fractions`` (with ``decimal``) loaded before a module compiles raises
the job's peak RSS.  ``tests/test_lazy_layers.py`` pins that order for
every leaf command.
"""

from __future__ import annotations

import json

from . import seifert
from ._value import (
    InputError, IntegerTooLong, data_lines, int_tokens, integer, json_int, quoted, read_json,
    read_text, token_error)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from .series import LaurentPolynomial


def read_matrix_file(source: str) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Matrix format: first value g, then 2g rows of 2g integers."""
    lines = [(lineno, body) for lineno, body in data_lines(read_text(source)) if body.strip()]
    if not lines:
        raise InputError("line 1, col 1: empty matrix file")
    try:
        genus = integer(lines[0][1].split()[0])
    except IntegerTooLong as exc:
        raise token_error(*lines[0], 0, str(exc)) from None
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


def read_laurent_file(source: str) -> LaurentPolynomial:
    """Laurent format: min exponent alone on one line, coefficient run on the next."""
    from .series import LaurentPolynomial

    lines = [(lineno, body) for lineno, body in data_lines(read_text(source)) if body.strip()]
    if len(lines) < 2:
        raise InputError("laurent file needs a min-exponent line and a coefficient line")
    if len(lines[0][1].split()) > 1:
        raise token_error(*lines[0], 1, "stray token {tok!r}")
    if len(lines) > 2:
        raise token_error(*lines[2], 0, "stray token {tok!r}")
    (min_exp,) = int_tokens(*lines[0], "bad laurent polynomial data")
    coeffs = int_tokens(*lines[1], "bad laurent polynomial data")
    return LaurentPolynomial.from_coefficient_list(min_exp, coeffs)


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
    from .series import mmr_series

    delta = read_laurent_file(args.laurent)
    coefficients = mmr_series(delta, args.order).coefficients
    payload = {
        "order": args.order,
        "coefficients": [str(c) for c in coefficients],
    }
    lines = [f"h^{i}: {c}" for i, c in enumerate(coefficients)]
    return 0, payload, lines


def _ratio(value) -> tuple[int, int]:
    """An alternating-sum value: a JSON integer, or a string ``p`` or ``p/q``
    of ASCII integers with ``q`` unsigned, as (p, q)."""
    if json_int(value):
        return value, 1
    if isinstance(value, str):
        p, slash, q = value.partition("/")
        try:
            return integer(p), integer(q, signed=False) if slash else 1
        except IntegerTooLong as exc:
            raise ValueError(f"value {_json_shown(value)}: {exc}") from None
        except ValueError:
            pass
    raise ValueError(f"value {_json_shown(value)} is not an integer or a \"p/q\" string")


def _json_shown(value) -> str:
    """``value`` as JSON for a diagnostic, capped as ``quoted`` caps a token."""
    return quoted(json.dumps(value), str)


def altsum(args):
    # the seifert layer loads on this read, before fractions (see the
    # module docstring)
    alternating_sum = seifert.alternating_sum
    from fractions import Fraction

    data = read_json(args.values)
    try:
        values = {}
        for entry in data:
            subset = entry["subset"]
            # a string would iterate as its characters
            if not isinstance(subset, list) or not all(map(json_int, subset)):
                raise ValueError(f"subset {_json_shown(subset)} is not a list of integers")
            values[tuple(subset)] = Fraction(*_ratio(entry["value"]))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad alternating-sum data: {exc}") from exc
    total = alternating_sum(values)
    return 0, {"sum": str(total)}, [str(total)]
