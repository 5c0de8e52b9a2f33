"""Independent determinant oracles for the tests.

``poly_matrix_det`` expands a matrix of dense integer polynomials (each a
coefficient tuple, low degree first, trailing zeros trimmed) along its
rows, memoizing minors over column subsets.  It costs O(2^n * n) and
shares no code with ``knotcert.seifert.int_det``/``pencil_det`` or the
elimination under them in ``knotcert._det``, which is why it
cross-checks them.  ``fraction_det`` is plain Gaussian
elimination over the rationals, the oracle for integer determinants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _poly_trim(p: list[int]) -> tuple[int, ...]:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _poly_add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _poly_trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_sub(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    n = max(len(a), len(b))
    return _poly_trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def _poly_mul(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def poly_matrix_det(entries: Sequence[Sequence[Sequence[int]]]) -> tuple[int, ...]:
    """Determinant of a matrix of dense polynomials, by minor expansion.

    Uses memoization over column subsets; exact and fast for the sizes
    here (matrices up to 8x8, entries linear in t).
    """
    n = len(entries)
    if n == 0:
        return (1,)
    cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def minor(row: int, colmask: int) -> tuple[int, ...]:
        if row == n:
            return (1,)
        key = (row, colmask)
        got = cache.get(key)
        if got is not None:
            return got
        total: tuple[int, ...] = ()
        sign = 1
        for col in range(n):
            bit = 1 << col
            if colmask & bit:
                continue
            entry = entries[row][col]
            if entry:
                term = _poly_mul(entry, minor(row + 1, colmask | bit))
                total = _poly_add(total, term) if sign > 0 else _poly_sub(total, term)
            sign = -sign  # alternates over the surviving columns only
        cache[key] = total
        return total

    return minor(0, 0)


def fraction_det(rows: Sequence[Sequence[int]]) -> int:
    """Integer determinant by Gaussian elimination over the rationals."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            det = -det
        det *= m[k][k]
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    assert det.denominator == 1
    return int(det)
