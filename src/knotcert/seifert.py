"""Seifert matrix arithmetic: determinants, the Alexander polynomial and forms.

A Seifert matrix V of a genus-g surface is a 2g x 2g integer matrix
whose antisymmetrization V - V^T is unimodular (determinant 1).  The
Alexander polynomial is det(V - t V^T) normalized by t^-g, which makes
it symmetric under t -> 1/t with value 1 at t = 1.  Every determinant
goes through one routine, fraction-free Bareiss elimination (``int_det``
for one matrix): the polynomial det(V - t V^T) of degree <= 2g is
eliminated once at t = 2^b, with b from Hadamard's bound, and its
coefficients are the base-2^b digits of that value (``pencil_det``),
which is polynomial in g.  Both validate their matrices here and run
the elimination in the plain ``_det``, which they import when called,
so ``classify`` and ``altsum`` never compile it.  The symmetrized
form's shape, congruence transforms, the block-determinant identity and
the alternating sum over subsets of switched crossings are here too.

``LaurentPolynomial``, the type of ``alexander``'s result, and the
canonical series p(h)/Delta(e^h) are in ``series``, which an ``mmr``
job loads without this module.  ``alexander`` imports it where it
builds its result, so ``classify`` and ``altsum`` never compile it.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from ._value import Record, json_int

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    # alternating_sum imports Fraction where it uses it, so that
    # alexander and classify never load fractions, decimal and numbers
    from fractions import Fraction

    from .series import LaurentPolynomial


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


def _check_genus(genus) -> None:
    """ValueError unless ``genus`` is an integer; a float or a bool would
    pass every size comparison (2 * 1.0 == 2) and leak into the results."""
    if not json_int(genus):
        raise ValueError(f"genus must be an integer, got {genus!r}")


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination, ``_det``)."""
    from ._det import matrix_det

    return matrix_det(_as_matrix(rows))


def pencil_det(x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients of det(X - tY), low degree first, trailing zeros trimmed
    (one elimination at t = 2^b, ``_det.pencil_coefficients``)."""
    x, y = _as_matrix(x), _as_matrix(y)
    if len(y) != len(x):
        raise ValueError("pencil matrices must have the same size")
    from ._det import pencil_coefficients

    return pencil_coefficients(x, y)


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
        _check_genus(self.genus)
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


def alexander(matrix: SeifertMatrix) -> LaurentPolynomial:
    """Alexander polynomial det(V - t V^T), normalized by t^-g.

    The normalization makes Delta(t) = Delta(1/t) and Delta(1) = 1; both
    are guaranteed by the unimodular antisymmetrization and asserted.
    """
    from .series import LaurentPolynomial

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
    _check_genus(genus)
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
    factor a g x g ``pencil_det``, each its own elimination at t = 2^b;
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


def alternating_sum(values: Mapping[Iterable[int], Fraction | int]) -> Fraction:
    """Signed sum over all subsets: sum_C (-1)^|C| v(C), empty set included.

    The universe is the union of the keys; every one of its subsets must
    be present.
    """
    from fractions import Fraction

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
