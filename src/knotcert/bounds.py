"""Arithmetic bound functions for the certificate machinery.

All logarithmic comparisons are exact and in integers: floor(log2(p/q))
comes from bit lengths and one comparison, and an integer v exceeds
log2(p/q) exactly when v > floor(log2(p/q)).  Negative values are
legitimate (the bounds go vacuous for small parameters).  The only
``Fraction`` is the argument that ``check_inequalities`` reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ._value import Record

if TYPE_CHECKING:
    from fractions import Fraction


def q(m: int) -> int:
    """Quotient of division of m by six."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return m // 6


def t(n: int) -> int:
    """Quotient of division of n by four."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return n // 4


def floor_log2(num: int, den: int = 1) -> int:
    """Exact floor(log2(num/den)) for positive integers num and den."""
    if num <= 0 or den <= 0:
        raise ValueError("arguments must be positive")
    e = num.bit_length() - den.bit_length()
    # 2^(e-1) < num/den < 2^(e+1), so num/den >= 2^e decides between e and e-1
    return e if num << max(-e, 0) >= den << max(e, 0) else e - 1


def q_param(n: int, k: int) -> int:
    """The two-branch bound q(n+1) / k + floor(log2((n+1-6k)/6)).

    ``n`` is the depth parameter: the word concerned lies in the
    (n+1)-st lower central term.  The second branch can be negative.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 6 * k:
        return q(n + 1)
    return k + floor_log2(n + 1 - 6 * k, 6)


class FactorPartition(Record):
    """Factors grouped into blocks with pairwise disjoint generator sets."""

    factor_generators: tuple[frozenset[int], ...]
    blocks: tuple[tuple[int, ...], ...]

    def block_generator_counts(self) -> tuple[int, ...]:
        counts = []
        for block in self.blocks:
            gens: set[int] = set()
            for i in block:
                gens |= self.factor_generators[i]
            counts.append(len(gens))
        return tuple(counts)


def partition_k(factors: Sequence[Iterable[int]]) -> tuple[FactorPartition, int]:
    """Partition factors into connected components of the sharing graph.

    Two factors are adjacent when their generator sets intersect; the
    blocks are the connected components, which is the coarsest partition
    with pairwise disjoint generator unions.  k is the minimum over
    blocks of the distinct-generator count, and 0 for no factors.
    """
    gensets = tuple(frozenset(f) for f in factors)
    n = len(gensets)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[int, int] = {}
    for i, gens in enumerate(gensets):
        for g in gens:
            if g in owner:
                ri, rj = find(i), find(owner[g])
                if ri != rj:
                    parent[ri] = rj
            else:
                owner[g] = i
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    blocks = tuple(tuple(sorted(g)) for g in sorted(groups.values()))
    partition = FactorPartition(gensets, blocks)
    if not blocks:
        return partition, 0
    return partition, min(partition.block_generator_counts())


def l_n_S(q_values: Sequence[int]) -> int:
    """min(q_values) - 1; the per-surface triviality bound."""
    if not q_values:
        raise ValueError("need at least one q-value")
    return min(q_values) - 1


class InequalityReport(Record):
    n: int
    q_bound_holds: bool
    q_param_bounds_hold: bool
    violations: tuple[str, ...]
    l_bound_argument: Fraction

    @property
    def all_hold(self) -> bool:
        return self.q_bound_holds and self.q_param_bounds_hold


def check_inequalities(n: int) -> InequalityReport:
    """Verify the chained bounds behind the triviality estimate.

    Checks q(n+1) > (n-5)/6 and, for every 1 <= k <= n/6, that the
    two-branch bound at depth n exceeds log2((n-5)/72).  The report also
    carries (n-5)/144, the argument whose log2 lower-bounds the final
    triviality estimate and drives it to infinity with n.

    No n >= 6 reports a violation: 6 q(n+1) >= n-4, and with
    m = n+1-6k >= 1 the bound k + floor(log2(m/6)) exceeds
    floor(log2((n-5)/72)) because m (6 * 2^k - 1) >= 6(k-1).  The
    checks stay as a guard on q and q_param.
    """
    from fractions import Fraction

    if n < 6:
        raise ValueError("n must be >= 6")
    violations: list[str] = []
    q_ok = 6 * q(n + 1) > n - 5
    if not q_ok:
        violations.append(f"q({n + 1}) <= ({n} - 5)/6")
    param_ok = True
    log_target = floor_log2(n - 5, 72)
    for k in range(1, n // 6 + 1):
        if q_param(n, k) <= log_target:
            param_ok = False
            violations.append(f"q_param({n}, {k}) <= log2(({n} - 5)/72)")
    return InequalityReport(
        n=n,
        q_bound_holds=q_ok,
        q_param_bounds_hold=param_ok,
        violations=tuple(violations),
        l_bound_argument=Fraction(n - 5, 144),
    )


def good_arc_bound(m: int, k: int, s: int, embedded: bool) -> int:
    """Lower bound for the trivializing-set count of a good arc.

    Combines the direct bound m+1-s with the parity bound: t(m+1) for
    embedded arcs, and for non-embedded arcs q(m+1) when m < 6k else
    k + floor((m-6k)/2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if k < 1:
        raise ValueError("k must be >= 1")
    if s < 0:
        raise ValueError("s must be >= 0")
    if embedded:
        parity = t(m + 1)
    elif m < 6 * k:
        parity = q(m + 1)
    else:
        parity = k + (m - 6 * k) // 2
    return max(m + 1 - s, parity)


def ratio_check(w_y: int, s_y: int) -> bool:
    """True iff the appearance/bad-set ratio w(y)/s_y is at least 4/3."""
    if s_y < 0:
        raise ValueError("s_y must be >= 0")
    return s_y == 0 or 3 * w_y >= 4 * s_y


def conflict_max(s: int) -> int:
    """Maximum number of conflict sets for a fixed generator: 2^s - 2."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if s >= 62:
        raise OverflowError("conflict count guarded for s >= 62")
    return (1 << s) - 2


def product_bound_check(m: int, k: int, r: int, s: int) -> bool:
    """Check the surviving-set count in the products-of-good-arcs bound.

    Requires the length relation m+1 = 6k + r + 2k(2^s - 2); returns
    whether k + floor(r/2) + k(s-2) exceeds log2((m+1-6k)/6).
    """
    if r <= 2:
        raise ValueError("r must be > 2")
    if s < 2:
        raise ValueError("s must be >= 2")
    if k < 1:
        raise ValueError("k must be >= 1")
    expected = 6 * k + r + 2 * k * ((1 << s) - 2)
    if m + 1 != expected:
        raise ValueError(f"length relation fails: m+1 = {m + 1} != {expected}")
    count = k + r // 2 + k * (s - 2)
    return count > floor_log2(m + 1 - 6 * k, 6)
