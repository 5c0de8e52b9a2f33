"""Seifert matrix arithmetic: Alexander polynomial and canonical series.

A Seifert matrix V of a genus-g surface is a 2g x 2g integer matrix
whose antisymmetrization V - V^T is unimodular (determinant 1).  The
Alexander polynomial is det(V - t V^T) normalized by t^-g, which makes
it symmetric under t -> 1/t with value 1 at t = 1.  Every determinant
goes through one routine, fraction-free Bareiss elimination (``int_det``
for one matrix): the polynomial det(V - t V^T) of degree <= 2g is
evaluated at 2g + 1 integers and interpolated exactly (``pencil_det``),
which is polynomial in g.  The canonical finite-type invariants come from the expansion of
p(h)/Delta(e^h) with p(h) = (e^{h/2} - e^{-h/2})/h, computed in exact
rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._value import Record, json_int


def _as_matrix(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """``rows`` as tuples; ValueError unless square with integer entries (never coerced)."""
    out = tuple(map(tuple, rows))
    for i, row in enumerate(out):
        if len(row) != len(out):
            raise ValueError("matrix must be square")
        for j, x in enumerate(row):
            if not json_int(x):
                raise ValueError(f"matrix entry ({i}, {j}) must be an integer, got {x!r}")
    return out


def _row_end(row: Sequence[int]) -> int:
    """One past the last nonzero entry of ``row`` (0 for a zero row)."""
    end = len(row)
    while end and not row[end - 1]:
        end -= 1
    return end


def _bareiss(m: list[list[int]], end: list[int]) -> int:
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
    """
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    lag = [1] * n
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
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
        for i in range(k + 1, n):
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


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    m = [list(row) for row in _as_matrix(rows)]
    return _bareiss(m, [_row_end(row) for row in m])


def pencil_det(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients of det(X - tY), low degree first, trailing zeros trimmed.

    The determinant has degree at most n, so it is evaluated by Bareiss
    elimination at the n + 1 consecutive integers centred on 0 (small |t|
    keeps the entries small) and recovered by Newton divided differences.
    At consecutive integers the level-k differences of a polynomial in Z[t]
    are Delta^k f / k!, integers, so each level divides exactly by k; a
    remainder is an internal defect.  X and Y are validated once; row i of
    every X - tY is 0 from column max(end of X's row i, end of Y's row i) on.
    """
    x, y = _as_matrix(x), _as_matrix(y)
    n = len(x)
    if len(y) != n:
        raise ValueError("pencil matrices must have the same size")
    ends = [max(_row_end(rx), _row_end(ry)) for rx, ry in zip(x, y)]
    nodes = range(-(n // 2), n + 1 - n // 2)
    diffs = [
        _bareiss([[a - t * b for a, b in zip(rx, ry)] for rx, ry in zip(x, y)], ends[:])
        for t in nodes
    ]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            diffs[i], rem = divmod(diffs[i] - diffs[i - 1], level)
            if rem:
                raise RuntimeError("non-integer coefficient in pencil determinant")
    # Newton form to monomial coefficients, innermost factor first
    out = [diffs[n]]
    for k in range(n - 1, -1, -1):
        out = [diffs[k] - nodes[k] * out[0]] + [
            a - nodes[k] * b for a, b in zip(out, out[1:])
        ] + [out[-1]]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def transpose(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    m = _as_matrix(rows)
    return tuple(tuple(row[i] for row in m) for i in range(len(m)))


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    bt = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


class SeifertMatrix(Record):
    genus: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = _as_matrix(self.rows)
        object.__setattr__(self, "rows", rows)
        if self.genus < 0:
            raise ValueError("genus must be >= 0")
        if len(rows) != 2 * self.genus:
            raise ValueError(f"expected a {2 * self.genus}x{2 * self.genus} matrix")
        anti = tuple(
            tuple(rows[i][j] - rows[j][i] for j in range(len(rows)))
            for i in range(len(rows))
        )
        if int_det(anti) != 1:
            raise ValueError("V - V^T must have determinant 1")


# ---------------------------------------------------------------------------
# Laurent polynomials (integer coefficients)


class LaurentPolynomial(Record):
    """Integer Laurent polynomial, stored as exponent -> nonzero coefficient."""

    coeffs: tuple[tuple[int, int], ...]

    @classmethod
    def from_dict(cls, data: Mapping[int, int]) -> "LaurentPolynomial":
        return cls(tuple(sorted((e, c) for e, c in data.items() if c)))

    @classmethod
    def from_coefficient_list(cls, min_exp: int, coeffs: Sequence[int]) -> "LaurentPolynomial":
        return cls.from_dict({min_exp + i: c for i, c in enumerate(coeffs)})

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def coefficient_list(self) -> tuple[int, tuple[int, ...]]:
        """(min exponent, dense coefficient run); (0, ()) for zero."""
        if not self.coeffs:
            return 0, ()
        lo = self.coeffs[0][0]
        hi = self.coeffs[-1][0]
        data = self.as_dict()
        return lo, tuple(data.get(e, 0) for e in range(lo, hi + 1))

    def __call__(self, value: int) -> int:
        if value == 1:
            return sum(c for _, c in self.coeffs)
        if value == -1:
            return sum(c if e % 2 == 0 else -c for e, c in self.coeffs)
        total = 0
        for e, c in self.coeffs:
            if e < 0:
                raise ValueError("integer evaluation needs t = +-1 for negative exponents")
            total += c * value**e
        return total

    def reciprocal(self) -> "LaurentPolynomial":
        """The substitution t -> 1/t."""
        return LaurentPolynomial.from_dict({-e: c for e, c in self.coeffs})

    def is_symmetric(self) -> bool:
        return self == self.reciprocal()

    def pretty(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e, c in self.coeffs:
            mon = "1" if e == 0 else ("t" if e == 1 else f"t^{e}")
            if c == 1 and e != 0:
                term = mon
            elif c == -1 and e != 0:
                term = f"-{mon}"
            else:
                term = f"{c}" if e == 0 else f"{c}*{mon}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls(((0, 1),))


def alexander(matrix: SeifertMatrix) -> LaurentPolynomial:
    """Alexander polynomial det(V - t V^T), normalized by t^-g.

    The normalization makes Delta(t) = Delta(1/t) and Delta(1) = 1; both
    are guaranteed by the unimodular antisymmetrization and asserted.
    """
    det = pencil_det(matrix.rows, transpose(matrix.rows))
    delta = LaurentPolynomial.from_dict(
        {i - matrix.genus: c for i, c in enumerate(det)}
    )
    if delta(1) != 1 or not delta.is_symmetric():  # pragma: no cover - invariant
        raise RuntimeError("normalization defect in Alexander polynomial")
    return delta


def symmetrize(rows: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """V + V^T."""
    m = _as_matrix(rows)
    n = len(m)
    return tuple(tuple(m[i][j] + m[j][i] for j in range(n)) for i in range(n))


def _is_symmetric(m: Sequence[Sequence[int]]) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def classify_form(rows: Sequence[Sequence[int]], genus: int) -> str:
    """Literal shape of a symmetric 2g x 2g matrix in the given basis.

    Checked strongest first: elliptic (diagonal of [[0,1],[1,0]]
    blocks), hyperbolic (zero g x g top-left block), parabolic (top-left
    and off-diagonal g x g blocks diagonal), else none.
    """
    m = _as_matrix(rows)
    n = len(m)
    if n != 2 * genus:
        raise ValueError(f"expected a {2 * genus}x{2 * genus} matrix")
    if not _is_symmetric(m):
        raise ValueError("matrix must be symmetric")

    def elliptic() -> bool:
        for i in range(n):
            for j in range(n):
                pair = i // 2 == j // 2 and i != j
                if m[i][j] != (1 if pair else 0):
                    return False
        return True

    def hyperbolic() -> bool:
        return all(m[i][j] == 0 for i in range(genus) for j in range(genus))

    def parabolic() -> bool:
        for i in range(genus):
            for j in range(genus):
                if i != j and (m[i][j] != 0 or m[i][genus + j] != 0):
                    return False
        return True

    if elliptic():
        return "elliptic"
    if hyperbolic():
        return "hyperbolic"
    if parabolic():
        return "parabolic"
    return "none"


def apply_basis_change(rows: Sequence[Sequence[int]], change: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Congruence transform U M U^T for unimodular integer U."""
    m = _as_matrix(rows)
    u = _as_matrix(change)
    if len(u) != len(m):
        raise ValueError("dimension mismatch")
    if int_det(u) not in (1, -1):
        raise ValueError("basis change must be unimodular")
    return mat_mul(mat_mul(u, m), transpose(u))


def anti_block_determinant_check(
    a: Sequence[Sequence[int]],
    b: Sequence[Sequence[int]],
    z: Sequence[Sequence[int]],
) -> bool:
    """Verify det(V - tV^T) = (-1)^g det(A - tB^T) det(B - tA^T).

    Here V = [[0, A], [B, Z]] with g x g blocks.  The left side is the
    direct 2g x 2g determinant ``pencil_det(V, V^T)`` and each right-hand
    factor a g x g ``pencil_det``, all by evaluation and interpolation;
    so the identity (and its independence of Z) is checked, not assumed.
    """
    a, b, z = _as_matrix(a), _as_matrix(b), _as_matrix(z)
    g = len(a)
    if len(b) != g or len(z) != g:
        raise ValueError("blocks must be square and equally sized")
    rows = [
        [0] * g + list(a[i]) for i in range(g)
    ] + [
        list(b[i]) + list(z[i]) for i in range(g)
    ]
    lhs = pencil_det(rows, transpose(rows))
    left, right = pencil_det(a, transpose(b)), pencil_det(b, transpose(a))
    rhs = [0] * (len(left) + len(right) - 1) if left and right else []
    for i, c in enumerate(left):
        for j, d in enumerate(right):
            rhs[i + j] += c * d
    if g % 2 == 1:
        rhs = [-c for c in rhs]
    return lhs == tuple(rhs)


# ---------------------------------------------------------------------------
# Canonical invariant series p(h) / Delta(e^h)


class RationalSeries(Record):
    """Truncated power series in h with exact rational coefficients."""

    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.coefficients[n]


def _exp_series(scale: Fraction, order: int) -> list[Fraction]:
    """Series of exp(scale * h) through the given order."""
    out = [Fraction(0)] * (order + 1)
    term = Fraction(1)
    for j in range(order + 1):
        out[j] = term
        term = term * scale / (j + 1)
    return out


def mmr_series(delta: LaurentPolynomial, order: int) -> RationalSeries:
    """Exact coefficients of p(h)/Delta(e^h) through the given order.

    p(h) = (e^{h/2} - e^{-h/2})/h; requires Delta(1) = 1 so the quotient
    is a power series with constant term 1.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if delta(1) != 1:
        raise ValueError("Delta(1) must equal 1")
    # p(h): build numerator e^{h/2} - e^{-h/2} one order higher, then
    # divide by h (drop the vanishing constant term).
    plus = _exp_series(Fraction(1, 2), order + 1)
    minus = _exp_series(Fraction(-1, 2), order + 1)
    p = [plus[j + 1] - minus[j + 1] for j in range(order + 1)]
    # Delta(e^h) = sum_e c_e * exp(e*h)
    den = [Fraction(0)] * (order + 1)
    for e, c in delta.coeffs:
        for j, val in enumerate(_exp_series(Fraction(e), order)):
            den[j] += c * val
    # den[0] = Delta(1) = 1, so the division needs no inverse
    out = [Fraction(0)] * (order + 1)
    for j in range(order + 1):
        acc = p[j]
        for i in range(1, j + 1):
            acc -= den[i] * out[j - i]
        out[j] = acc
    return RationalSeries(tuple(out))


def alternating_sum(values: Mapping[Iterable[int], Fraction | int]) -> Fraction:
    """Signed sum over all subsets: sum_C (-1)^|C| v(C), empty set included.

    The universe is the union of the keys; every one of its subsets must
    be present.
    """
    table: dict[frozenset[int], Fraction] = {}
    for key, value in values.items():
        fkey = frozenset(key)
        if fkey in table:
            raise ValueError(f"duplicate subset {sorted(fkey)}")
        table[fkey] = Fraction(value)
    universe: frozenset[int] = frozenset().union(*table.keys()) if table else frozenset()
    if len(table) != 1 << len(universe):
        missing = _first_missing_subset(table, sorted(universe))
        raise ValueError(f"missing subset {missing}")
    total = Fraction(0)
    for subset, value in table.items():
        total += value if len(subset) % 2 == 0 else -value
    return total


def _first_missing_subset(table: Mapping[frozenset[int], Fraction], universe: list[int]) -> list[int]:
    from itertools import combinations

    return next(list(subset) for size in range(len(universe) + 1)
                for subset in combinations(universe, size) if frozenset(subset) not in table)
