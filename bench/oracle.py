"""Independent answers for the benchmark's answer checks.

Nothing here imports knotcert: every expected value is computed by a
separate, plain algorithm (free reduction, letterwise commutator
expansion, a position-automaton Fox coefficient, Fraction elimination),
so a wrong answer from the program cannot agree with itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial


# ---------------------------------------------------------------------------
# free-group words (tuples of nonzero ints, -k is the inverse of k)


def reduce(letters) -> tuple[int, ...]:
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse(word) -> tuple[int, ...]:
    return tuple(-x for x in reversed(word))


def commutator(u, v) -> tuple[int, ...]:
    """[u, v] = u v u^-1 v^-1, reduced."""
    return reduce(tuple(u) + tuple(v) + inverse(u) + inverse(v))


def conjugate(word, by) -> tuple[int, ...]:
    return reduce(tuple(by) + tuple(word) + inverse(by))


def exponent_sums(word) -> dict[int, int]:
    sums: dict[int, int] = {}
    for x in word:
        sums[abs(x)] = sums.get(abs(x), 0) + (1 if x > 0 else -1)
    return {g: s for g, s in sums.items() if s}


def kill(word, killed) -> tuple[int, ...]:
    return reduce(x for x in word if abs(x) not in killed)


def token_word(word) -> str:
    return " ".join(f"g{x}" if x > 0 else f"g{-x}^-1" for x in word)


def parse_tokens(text: str) -> tuple[int, ...]:
    """Inverse of ``token_word``: ``g3 g1^-1`` -> (3, -1)."""
    return tuple(
        -int(tok[1:-3]) if tok.endswith("^-1") else int(tok[1:]) for tok in text.split()
    )


def left_normed_expansion(entries) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Unreduced letters and entry tags of [y1, ..., yk], left-normed.

    [W, y] is written W y W^-1 y^-1 with W^-1 spelled out letter by
    letter, so each letter keeps the 1-based index of its entry.
    """
    letters = [entries[0]]
    tags = [1]
    for stage, y in enumerate(entries[1:], start=2):
        letters = letters + [y] + [-x for x in reversed(letters)] + [-y]
        tags = tags + [stage] + list(reversed(tags)) + [stage]
    return tuple(letters), tuple(tags)


def left_normed_word(entries) -> tuple[int, ...]:
    return reduce(left_normed_expansion(entries)[0])


def fox(word, indices) -> int:
    """Coefficient of X_{i1}...X_{ik} in the Magnus expansion of ``word``.

    A left-to-right automaton over "how many indices are matched": a
    letter g may match one index equal to g, and g^-1 may match any run
    of indices equal to g with sign (-1)^run.  O(len(word) * k), with no
    series expansion.
    """
    k = len(indices)
    dp = [1] + [0] * k
    for x in word:
        g = abs(x)
        if x > 0:
            for j in range(k - 1, -1, -1):
                if indices[j] == g:
                    dp[j + 1] += dp[j]
        else:
            for j in range(1, k + 1):
                if indices[j - 1] == g:
                    dp[j] -= dp[j - 1]
    return dp[k]


# ---------------------------------------------------------------------------
# Seifert matrices


def det(rows) -> Fraction:
    """Determinant by Fraction Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            out = -out
        out *= m[k][k]
        for i in range(k + 1, n):
            f = m[i][k] / m[k][k]
            if f:
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return out


def alexander(rows) -> tuple[int, tuple[int, ...]]:
    """(min exponent, coefficient run) of det(V - t V^T) / t^g.

    The determinant has degree <= 2g, so it is evaluated at the 2g+1
    integers 0..2g and recovered by Newton divided differences.
    """
    n = len(rows)
    g = n // 2
    xs = list(range(n + 1))
    ys = [
        det([[rows[i][j] - x * rows[j][i] for j in range(n)] for i in range(n)])
        for x in xs
    ]
    table = list(ys)
    newton = [table[0]]
    for level in range(1, n + 1):
        table = [
            (table[i + 1] - table[i]) / (xs[i + level] - xs[i]) for i in range(len(table) - 1)
        ]
        newton.append(table[0])
    poly = [Fraction(0)] * (n + 1)
    basis = [Fraction(1)]  # prod (t - x_i) so far, low degree first
    for level, coeff in enumerate(newton):
        for d, b in enumerate(basis):
            poly[d] += coeff * b
        nxt = [Fraction(0)] * (len(basis) + 1)
        for d, b in enumerate(basis):
            nxt[d + 1] += b
            nxt[d] -= xs[level] * b
        basis = nxt
    if any(c.denominator != 1 for c in poly):
        raise ArithmeticError("non-integer Alexander coefficient")
    return laurent_run({d - g: int(c) for d, c in enumerate(poly)})


def laurent_run(coeffs: dict[int, int]) -> tuple[int, tuple[int, ...]]:
    coeffs = {e: c for e, c in coeffs.items() if c}
    if not coeffs:
        return 0, ()
    lo, hi = min(coeffs), max(coeffs)
    return lo, tuple(coeffs.get(e, 0) for e in range(lo, hi + 1))


def torus_alexander(genus: int) -> tuple[int, tuple[int, ...]]:
    """Closed form for T(2, 2g+1): sum_{i=0}^{2g} (-t)^i, normalized."""
    return -genus, tuple((-1) ** i for i in range(2 * genus + 1))


def mmr_residue(run: tuple[int, tuple[int, ...]], series: list[Fraction]) -> Fraction | None:
    """Check series * Delta(e^h) == p(h) through the series order.

    p(h) = (e^{h/2} - e^{-h/2}) / h.  Returns None when every
    coefficient matches, else the first nonzero defect.
    """
    order = len(series) - 1
    lo, coeffs = run
    den = [
        sum(Fraction(c * (lo + i) ** j, factorial(j)) for i, c in enumerate(coeffs))
        for j in range(order + 1)
    ]
    p = [
        (Fraction(1, 2) ** (j + 1) - Fraction(-1, 2) ** (j + 1)) / factorial(j + 1)
        for j in range(order + 1)
    ]
    for j in range(order + 1):
        defect = sum(series[i] * den[j - i] for i in range(j + 1)) - p[j]
        if defect:
            return defect
    return None


def form_shape(rows, genus: int) -> str:
    """Literal shape of a symmetric 2g x 2g form, strongest first."""
    n = len(rows)
    if all(
        rows[i][j] == (1 if i // 2 == j // 2 and i != j else 0)
        for i in range(n) for j in range(n)
    ):
        return "elliptic"
    if all(rows[i][j] == 0 for i in range(genus) for j in range(genus)):
        return "hyperbolic"
    if all(
        rows[i][j] == 0 and rows[i][genus + j] == 0
        for i in range(genus) for j in range(genus) if i != j
    ):
        return "parabolic"
    return "none"


# ---------------------------------------------------------------------------
# bound arithmetic


def floor_log2(value: Fraction) -> int:
    e = 0
    while Fraction(2) ** (e + 1) <= value:
        e += 1
    while Fraction(2) ** e > value:
        e -= 1
    return e


def q_param(n: int, k: int) -> int:
    if n < 6 * k:
        return (n + 1) // 6
    return k + floor_log2(Fraction(n + 1 - 6 * k, 6))


def inequalities_hold(n: int) -> bool:
    """q(n+1) > (n-5)/6, and q_param(n, k) > log2((n-5)/72) for k <= n/6."""
    if not Fraction((n + 1) // 6) > Fraction(n - 5, 6):
        return False
    target = Fraction(n - 5, 72)
    return all(Fraction(2) ** q_param(n, k) > target for k in range(1, n // 6 + 1))


def partition_min_block(gensets) -> int:
    """Smallest generator count over the connected blocks of shared generators."""
    blocks: list[set[int]] = []
    for gens in gensets:
        merged = set(gens)
        rest = []
        for b in blocks:
            if b & merged:
                merged |= b
            else:
                rest.append(b)
        blocks = rest + [merged]
    return min((len(b) for b in blocks), default=0)
