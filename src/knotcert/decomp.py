"""Products of simple commutators matching a word modulo F^(D+1).

``stage_factors`` peels an expansion of lower-central-series degree
>= m+1 one degree at a time: at each degree d the degree-d slice of the
Magnus expansion of the current remainder is a Lie element, which the
Lyndon solver turns into an integer combination of left-normed
commutators of weight d.  Each stage is checked exactly at the Lie
level: the weighted sum of the left-normed Lie polynomials of the
emitted commutators must equal the slice.  The degree-d Magnus part is a
homomorphism on F^(d)/F^(d+1) (Reutenauer, *Free Lie Algebras*, 1993),
so that identity pushes the remainder one degree deeper; after degree D
the residual lies in F^(D+1).

The weighted sum is formed grouped by suffix, not factor by factor:
[e_1, ..., e_d] = R_(e_d)([e_1, ..., e_(d-1)]) with R_y(P) = P y - y P
linear, so the factors that end in the same y share one R_y applied to
the sum of their prefixes, recursively.  A genuine solve cancels most
of its terms, and the grouping cancels them at every level, so a stage
never expands a factor into its own 2^(d-1) monomials.  The result is
the same polynomial, compared in full with the slice, and it reads
only the solver's combination, so the check stays exact and
independent of the solver.

``decompose`` is a word's expansion, its ``stage_factors`` and the
residual word G^-1 * w (``residual_word``).  Callers that already hold
the expansion, such as a membership check that expanded the word to
degree m+1, call ``stage_factors`` directly and build the residual only
if they need it.
"""

from __future__ import annotations

from functools import lru_cache
from collections.abc import Sequence

from ._value import Record
from .lyndon import left_normed_combination, left_normed_lie_polynomial
from .magnus import NCPolynomial, expand, nc_mul, unpack_monomial
from .words import _push_reduced, commutator_word, invert, reduce_word


class CommutatorCombination(Record):
    """Factors of a word modulo F^(valid_mod_degree + 1).

    The original word equals (product of the commutators of ``factors``
    in order, each raised to its +-1 exponent) * ``residual`` exactly,
    and the residual has Magnus degree > ``valid_mod_degree``.
    """

    factors: tuple[tuple[tuple[int, ...], int], ...]
    residual: tuple[int, ...]
    valid_mod_degree: int

    def factor_words(self) -> list[tuple[int, ...]]:
        out = []
        for entries, exponent in self.factors:
            w = commutator_group_word(entries)
            out.append(w if exponent > 0 else invert(w))
        return out

    def product_word(self) -> tuple[int, ...]:
        out: list[int] = []
        for w in self.factor_words():
            _push_reduced(out, w)
        return tuple(out)


@lru_cache(maxsize=None)
def commutator_group_word(entries: tuple[int, ...]) -> tuple[int, ...]:
    """Cached ``commutator_word``: a solve emits the same nests many times."""
    return commutator_word(entries)


@lru_cache(maxsize=256)
def _expand_nest_pair(entries: tuple[int, ...], degree: int) -> tuple[NCPolynomial, NCPolynomial]:
    """Expansions of a left-normed commutator and of its inverse.

    Each stage multiplies sparse series (support {0} union [k, D]), so
    this stays cheap where letterwise expansion of the 3*2^m-letter
    nest word would not; carrying the inverse along avoids series
    inversion, and recursing on the prefix shares work between the many
    factors of a solve that differ only in their last entries.
    """
    if len(entries) == 1:
        return expand(entries, degree), expand((-entries[0],), degree)
    p, p_inv = _expand_nest_pair(entries[:-1], degree)
    y = entries[-1]
    ey = expand((y,), degree)
    ey_inv = expand((-y,), degree)
    # W' = W y W^-1 y^-1 and W'^-1 = y W y^-1 W^-1
    new_p = nc_mul(nc_mul(nc_mul(p, ey), p_inv), ey_inv)
    new_inv = nc_mul(nc_mul(nc_mul(ey, p), ey_inv), p_inv)
    return new_p, new_inv


def lie_component(word: Sequence[int], m: int) -> dict[tuple[int, ...], int]:
    """Degree-m coefficients of the Magnus expansion of ``word``.

    Requires lcs degree >= m; the slice is then a Lie element.
    """
    poly = expand(word, m)
    low = poly.min_positive_degree()
    if low is not None and low < m:
        raise ValueError(f"word has lcs degree {low} < {m}")
    return _bucket_tuples(poly, m)


def _bucket_tuples(poly: NCPolynomial, d: int) -> dict[tuple[int, ...], int]:
    return {unpack_monomial(m): c for m, c in poly.buckets[d].items()}


def _try_single_factor(
    component: dict[tuple[int, ...], int], d: int
) -> dict[tuple[int, ...], int] | None:
    """Match the slice against c * [y1, ..., yd] for one entry sequence.

    Keeps a word that is a power of a single simple commutator decomposed
    as copies of that commutator instead of its Lyndon-basis rewriting.
    Bounded to small weights; the general solver handles everything else.
    """
    from itertools import permutations

    if d > 7:
        return None
    multiset = sorted(min(component))
    if any(sorted(mon) != multiset for mon in component):
        return None
    candidates = sorted(set(permutations(multiset)))
    if len(candidates) > 300:
        return None
    lead = min(component)
    target = component[lead]
    for entries in candidates:
        if entries[0] == entries[1]:
            continue
        ln = left_normed_lie_polynomial(entries)
        base = ln.get(lead)
        if not base or target % base:
            continue
        coeff = target // base
        if component == {mon: coeff * c for mon, c in ln.items()}:
            return {entries: coeff}
    return None


def _bracket_sum(combo: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """Associative polynomial of sum of coeff * [e_1, ..., e_d] over ``combo``.

    Every key has the same weight d >= 1.  The bracket R_y(P) = P y - y P
    is linear, so the sum is the sum over y of R_y applied to the inner
    sum of coeff * [e_1, ..., e_(d-1)] over the keys with e_d = y; the
    inner sums recurse the same way, so cancellation between factors
    happens at every level instead of after every factor is expanded.
    """
    groups: dict[int, dict[tuple[int, ...], int]] = {}
    for entries, coeff in combo.items():
        groups.setdefault(entries[-1], {})[entries[:-1]] = coeff
    total: dict[tuple[int, ...], int] = {}
    get = total.get
    for y, inner in groups.items():
        yt = (y,)
        if () in inner:  # weight 1
            total[yt] = inner[()]
            continue
        for mon, c in _bracket_sum(inner).items():
            key = mon + yt
            total[key] = get(key, 0) + c
            key = yt + mon
            total[key] = get(key, 0) - c
    return {mon: c for mon, c in total.items() if c}


def _check_stage(
    combo: dict[tuple[int, ...], int], component: dict[tuple[int, ...], int], d: int
) -> None:
    """Require sum of coeff * [y1, ..., yd] over ``combo`` to equal the slice.

    The factor inverses and the remainder lie in F^(d), so the degree-d
    part of their product is the slice minus this sum: the check is exact.
    ``_bracket_sum`` forms the sum grouped by suffix, so it builds no
    factor's own 2^(d-1)-monomial polynomial; by linearity of the
    bracket it is the same polynomial, compared in full with the slice.
    """
    for entries in combo:
        if len(entries) != d:
            raise RuntimeError(f"degree-{d} slice got weight-{len(entries)} factor {entries}")
    if _bracket_sum(combo) != component:
        raise RuntimeError(f"stage {d}: the factors do not sum to the degree-{d} slice")


def _check_depths(m: int, degree: int) -> None:
    if m < 1:
        raise ValueError("m must be >= 1")
    if degree < m + 1:
        raise ValueError("degree must be >= m+1")


def stage_factors(
    expansion: NCPolynomial, m: int, degree: int
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Commutator factors of weights m+1..degree read off an expansion.

    ``expansion`` is a word's Magnus expansion truncated at ``degree`` or
    beyond, with no nonzero coefficient of degree 1..m (lcs degree >=
    m+1).  At each weight the integer solve is triangular in Lyndon
    coordinates; a solution failing the Lie-level stage check cannot
    occur for a genuine group element and raises RuntimeError.  The
    remainder is advanced by series products only when a later weight
    needs its next slice, so a single-stage call multiplies no series.
    """
    _check_depths(m, degree)
    if expansion.degree < degree:
        raise ValueError(f"expansion of degree {expansion.degree} < {degree}")
    low = expansion.min_positive_degree()
    if low is not None and low <= m:
        raise ValueError(f"word has lcs degree {low} <= m = {m}")

    remainder = expansion
    factors: list[tuple[tuple[int, ...], int]] = []
    for d in range(m + 1, degree + 1):
        component = _bucket_tuples(remainder, d)
        if not component:
            continue
        combo = _try_single_factor(component, d)
        if combo is None:
            combo = left_normed_combination(component)
        _check_stage(combo, component, d)
        stage = [
            (entries, 1 if combo[entries] > 0 else -1)
            for entries in sorted(combo)
            for _ in range(abs(combo[entries]))
        ]
        factors.extend(stage)
        if d < degree:
            # remainder <- G_d^-1 * remainder; left-multiplying by the
            # factor inverses in emitted order builds f_k^-1 ... f_1^-1 R
            for entries, exponent in stage:
                base, base_inv = _expand_nest_pair(entries, remainder.degree)
                remainder = nc_mul(base_inv if exponent > 0 else base, remainder)
    return tuple(factors)


def residual_word(
    word: tuple[int, ...], factors: Sequence[tuple[tuple[int, ...], int]]
) -> tuple[int, ...]:
    """G^-1 * word for the reduced ``word``, G the factor product in order."""
    residual: list[int] = []
    for entries, exponent in reversed(factors):
        w = commutator_group_word(entries)
        _push_reduced(residual, invert(w) if exponent > 0 else w)
    _push_reduced(residual, word)
    return tuple(residual)


def decompose(word: Sequence[int], m: int, degree: int) -> CommutatorCombination:
    """Write ``word`` as simple commutators of weights m+1..degree.

    Preconditions: lcs degree of the word >= m+1 and degree >= m+1.
    The factors are ``stage_factors`` of the word's expansion at
    ``degree``, and the residual is exact, of lcs degree > ``degree``.
    """
    _check_depths(m, degree)  # before ``expand``, which rejects degree < 1 itself
    word = reduce_word(word)
    factors = stage_factors(expand(word, degree), m, degree)
    return CommutatorCombination(factors, residual_word(word, factors), degree)
