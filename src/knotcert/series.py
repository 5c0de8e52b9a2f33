"""Laurent polynomials and the canonical invariant series p(h)/Delta(e^h).

``LaurentPolynomial`` holds an integer Laurent polynomial, such as the
Alexander polynomial that ``seifert.alexander`` returns.  ``mmr_series``
expands p(h)/Delta(e^h) with p(h) = (e^{h/2} - e^{-h/2})/h in exact
rational arithmetic; its coefficients are finite-type invariants.

This module imports only ``_value``, so an ``mmr`` job, which reads its
Delta from a file, compiles none of the Seifert-matrix code.  The series
functions import ``Fraction`` where they use it, so that ``alexander``
and ``classify``, which load this module through ``seifert``, never load
``fractions``, ``decimal`` and ``numbers``.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from ._value import Record

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from fractions import Fraction


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
    from fractions import Fraction

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
    from fractions import Fraction

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
