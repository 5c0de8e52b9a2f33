"""Milnor invariants of a link presented by its longitude words.

Milnor's invariants are coefficients of the Magnus expansions of the
longitudes.  ``fox_coefficient`` reads one coefficient without
expanding: a pass over the word counts only the coefficients of the
index's left factors, exactly.  ``milnor_vanish_upto`` asks the
lower-central-series membership of ``magnus`` instead.

This is a plain module that only the ``magnus fox`` and ``milnor``
commands import, so a certificate check, which expands words through
``magnus``, never compiles it.
"""

from __future__ import annotations

from math import gcd
from collections.abc import Sequence

from ._value import Record
from .magnus import _alphabet, lcs_at_least
from .words import reduce_word


def fox_coefficient(word: Sequence[int], indices: Sequence[int]) -> int:
    """Coefficient of X_{i1}...X_{ik} in the Magnus expansion.

    Equals the augmentation of the iterated Fox derivative d/dx_{i1}
    ... d/dx_{ik} of the word.  One pass keeps c[j], the coefficient of
    X_{i1}...X_{ij} in the expansion of the letters read so far.  A
    letter changes a monomial's coefficient only through those of its
    left factors, so these k+1 follow ``magnus._mul_letter``'s
    recurrence exactly: x_g adds c[j-1] to c[j] wherever i_j = g, top
    down; x_g^-1 subtracts the new c[j-1], bottom up.
    """
    if not indices:
        return 1
    _alphabet([abs(letter) for letter in word])
    _alphabet(indices)
    steps: dict[int, list[int]] = {}
    for j, g in enumerate(indices, 1):
        steps.setdefault(-g, []).append(j)
        steps.setdefault(g, []).insert(0, j)
    c = [1] + [0] * len(indices)
    for letter in word:
        positions = steps.get(letter, ())
        if letter > 0:
            for j in positions:
                c[j] += c[j - 1]
        else:
            for j in positions:
                c[j] -= c[j - 1]
    return c[-1]


class LongitudeSystem(Record):
    """Longitude words of a link, over its meridian generators 1..r."""

    components: int
    longitudes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.components < 1:
            raise ValueError("component count must be >= 1")
        if len(self.longitudes) != self.components:
            raise ValueError("need one longitude per component")
        reduced = tuple(reduce_word(w) for w in self.longitudes)
        object.__setattr__(self, "longitudes", reduced)
        for w in reduced:
            for letter in w:
                if abs(letter) > self.components:
                    raise ValueError(
                        f"longitude uses generator {abs(letter)} > {self.components}"
                    )


def milnor_invariant(system: LongitudeSystem, index: Sequence[int], reduced: bool = False) -> int:
    """Milnor invariant mu(i1 ... ik) as a Magnus coefficient.

    The raw value is the coefficient of X_{i1}...X_{i_{k-1}} in the
    expansion of the longitude of component i_k, read by one pass of
    ``fox_coefficient``.  With ``reduced=True`` the value is returned
    modulo the gcd of the raw invariants of all multi-indices obtained
    by deleting one index (length-1 invariants are 0 by convention, and
    a vanishing gcd means no reduction).
    """
    k = len(index)
    if k < 2:
        raise ValueError("multi-index must have length >= 2")
    for i in index:
        if not 1 <= i <= system.components:
            raise ValueError(f"component index {i} out of range 1..{system.components}")
    raw = fox_coefficient(system.longitudes[index[-1] - 1], index[:-1])
    if not reduced or k == 2:
        return raw
    modulus = 0
    for drop in range(k):
        modulus = gcd(modulus, milnor_invariant(system, (*index[:drop], *index[drop + 1:])))
    return raw % modulus if modulus else raw


def milnor_vanish_upto(system: LongitudeSystem, n: int) -> bool:
    """True iff every raw Milnor invariant of length <= n+1 vanishes.

    Equivalent to every longitude lying in F^(n+1): an invariant of
    length k reads a degree-(k-1) coefficient of a longitude.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return all(lcs_at_least(w, n + 1) for w in system.longitudes)
