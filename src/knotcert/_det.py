"""Fraction-free Bareiss elimination and the determinant pencil.

The machinery under ``seifert.int_det`` and ``seifert.pencil_det``, which
validate their matrices and call in here: ``matrix_det`` eliminates one
integer matrix, ``pencil_coefficients`` eliminates det(X - tY) once at
t = 2^b and reads the coefficients off its base-2^b digits, and
``_bareiss`` is the one elimination routine under both.  It is a plain
module that those two functions import when they run, so a ``classify``
or ``altsum`` job, which takes no determinant, compiles ``seifert.py``
without it.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import accumulate


def _row_end(row: Sequence[int]) -> int:
    """One past the last nonzero entry of ``row`` (0 for a zero row)."""
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return end


def _row_start(row: Sequence[int]) -> int:
    """The column of the first nonzero entry of ``row`` (its length for a zero row)."""
    return next((j for j, x in enumerate(row) if x), len(row))


def _reach(starts: Sequence[int]) -> list[int]:
    """``reach[k]``: the last row whose first nonzero column, as ``starts``
    gives it, is <= k, or -1 if there is none."""
    last = {start: i for i, start in enumerate(starts)}
    return list(accumulate((last.get(k, -1) for k in range(len(starts))), max))


def _bareiss(m: list[list[int]], end: list[int], reach: Sequence[int]) -> int:
    """Determinant of the square int matrix ``m``, eliminated in place.

    A row whose entry in the pivot column is 0 is left as it is for that
    step instead of being rescaled by pivot / previous pivot; ``lag[i]``
    records the pivot row i's entries are current for.  When the row
    next takes part, its update divides by ``lag[i]`` instead of the
    previous pivot, and a lagging pivot row or final entry is brought up
    to date with ``x * prev // lag[i]``.  Every division is exact, since
    each result is a minor of the input (Sylvester's identity).

    ``end[i]`` bounds row i's nonzero entries from the right: every entry
    from column ``end[i]`` on is 0.  An update of row i by pivot row k
    covers only the columns before max(end[i], end[k]); both rows are 0
    beyond that, so their combination is too, and so is any rescale of a
    lagging row.  Dense matrices cost the same as plain Bareiss; a
    banded one skips the rescales and costs O(n * band^2) row work.

    ``reach[k]`` (see ``_reach``) bounds the rows of step k from below.
    A row past it starts right of column k; no pivot row has touched it,
    since every earlier step stopped at its own reach, which is no
    greater, so it is still 0 in column k.  The pivot search and the
    update stop there, so a banded matrix costs O(band) row tests per
    step, not O(n).  Any ``starts`` that are no greater than the true
    first nonzero columns give a valid ``reach``.
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    lag = [1] * n
    for k in range(n - 1):
        below = range(k + 1, reach[k] + 1)
        if m[k][k] == 0:
            for i in below:
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    lag[k], lag[i] = lag[i], lag[k]
                    end[k], end[i] = end[i], end[k]
                    sign = -sign
                    break
            else:
                return 0
        top = m[k]
        top_end = end[k]
        if lag[k] != prev:
            top[k:top_end] = [x * prev // lag[k] for x in top[k:top_end]]
        pivot = top[k]
        for i in below:
            row = m[i]
            head = row[k]
            if head:
                div = lag[i]
                stop = max(end[i], top_end)
                row[k + 1:stop] = [
                    (x * pivot - head * y) // div
                    for x, y in zip(row[k + 1:stop], top[k + 1:stop])
                ]
                row[k] = 0
                lag[i] = pivot
                end[i] = stop
        prev = pivot
    return sign * m[-1][-1] * prev // lag[-1]


def matrix_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a validated square integer matrix."""
    m = [list(row) for row in rows]
    return _bareiss(m, [_row_end(row) for row in m], _reach([_row_start(row) for row in m]))


def pencil_coefficients(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients of det(X - tY) for validated n x n matrices, low
    degree first, trailing zeros trimmed.

    Kronecker substitution: one Bareiss elimination at t = 2^b, whose
    balanced base-2^b digits are the coefficients.  On |t| = 1 every
    entry of X - tY is at most the entry of |X| + |Y|, so by Hadamard's
    inequality |det| is at most the product of that matrix's row 2-norms,
    and so is every coefficient (the mean of |det|^2 over the circle is
    the sum of their squares).  ``square`` is that product squared,
    computed exactly; its root is below 2^(b - 2), so each coefficient
    is a digit in [-2^(b-1), 2^(b-1)) and the digits are unique.  A
    determinant of degree at most n has at most n + 1 digits; more is an
    internal defect.

    The pivots grow to about n * b bits, and CPython's long division is
    quadratic in their length: a dense pencil of size past about 32
    (genus 16) costs more here than n + 1 eliminations at small integers
    would, while sparse and smaller dense pencils cost far less.
    """
    square = 1
    for rx, ry in zip(x, y):
        square *= sum((abs(a) + abs(b)) ** 2 for a, b in zip(rx, ry))
    bits = (square.bit_length() + 1) // 2 + 2
    value = matrix_det([[a - (b << bits) for a, b in zip(rx, ry)] for rx, ry in zip(x, y)])
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    out = []
    while value:
        digit = ((value + half) & mask) - half
        out.append(digit)
        value = (value - digit) >> bits
    if len(out) > len(x) + 1:
        raise RuntimeError("pencil determinant exceeds its coefficient bound")
    return tuple(out)
