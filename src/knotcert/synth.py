"""Builders for synthetic certificates with known verdicts.

These constructions realize each certificate kind at desk scale: deep
memberships are witnessed by balanced commutators of conjugates of the
closure generators, which keep the pushoff words short.  The q-value
of a word at depth m forces m+1 >= 6q, so q-value 3 needs depth 17;
the words stay short there too (a 336-letter word lies in F^(18)), and
the cost is the degree-18 expansion that checks them.  Every
commutator here, of letters or of whole words, is a left-normed
bracket of reduced words built by ``words._left_normed``, the builder
behind ``commutator_word``.  The builders double as the reference
corpus shipped with the CLI and as the mutation-testing population.
"""

from __future__ import annotations

import random
from dataclasses import replace

from ._value import as_dict
from .certify import (
    Curve,
    FLAG_ADMISSIBLE,
    FLAG_REGULAR_SPINE,
    FLAG_UNRELATED,
    SurfaceCertificate,
    UnknottedFactors,
    x_generator,
    y_generator,
)
from .words import _left_normed, commutator_word, conjugate


def closure_letters(base: int, conjugator: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two Schreier generators of the closure of ``base``: s and t s t^-1."""
    return (base,), conjugate((base,), (conjugator,))


def deep_closure_word(base: int, conjugator: int) -> tuple[int, ...]:
    """A word of the closure of ``base`` with closure lcs degree exactly 12.

    Bracket of two weight-6 balanced commutators in the Schreier letters
    s and t s t^-1; the two degree-6 Lie elements are independent, so
    the degree-12 bracket survives.
    """
    a, b = closure_letters(base, conjugator)
    c6 = _left_normed((_left_normed((a, b, a)), _left_normed((b, a, b))))
    c6p = _left_normed((_left_normed((b, a, b, a)), _left_normed((b, a))))
    return _left_normed((c6, c6p))


def mid_closure_word(base: int, conjugator: int) -> tuple[int, ...]:
    """A word of the closure of ``base`` with closure lcs degree exactly 6."""
    a, b = closure_letters(base, conjugator)
    return _left_normed((_left_normed((a, b, a)), _left_normed((b, a, b))))


def pair_commutator(index: int, weight: int) -> tuple[int, ...]:
    """Left-normed commutator of the given weight alternating x_i, y_i."""
    entries = tuple(
        x_generator(index) if j % 2 == 0 else y_generator(index) for j in range(weight)
    )
    return commutator_word(entries)


def hyperbolic_example(genus: int, n: int, conjugated: bool = True) -> SurfaceCertificate:
    """n-hyperbolic certificate: stage-i pushoff is a weight-(n+1) nest
    on the pair duals, conjugated by earlier duals killed at that stage."""
    curves = []
    for i in range(1, genus + 1):
        word = pair_commutator(i, n + 1)
        if conjugated and i > 1:
            word = conjugate(word, (x_generator(i - 1),))
        curves.append(Curve(name=f"a{i}", role="A", index=i, pushoff_plus=word))
        curves.append(
            Curve(name=f"b{i}", role="B", index=i, pushoff_plus=pair_commutator(i, n + 1))
        )
    return SurfaceCertificate(
        kind="hyperbolic",
        genus=genus,
        n=n,
        curves=tuple(curves),
        asserted_flags=(FLAG_REGULAR_SPINE, FLAG_ADMISSIBLE),
    )


def elliptic_example() -> SurfaceCertificate:
    """2-elliptic certificate of genus 1: q_A + q_B = 2 + 1 = 3."""
    w_a = deep_closure_word(x_generator(1), y_generator(1))
    w_b = mid_closure_word(y_generator(1), x_generator(1))
    curves = (
        Curve(name="a1", role="A", index=1, pushoff_plus=w_a, m=11),
        Curve(name="b1", role="B", index=1, pushoff_minus=w_b, m=5),
    )
    return SurfaceCertificate(
        kind="elliptic",
        genus=1,
        n=2,
        curves=curves,
        asserted_flags=(FLAG_REGULAR_SPINE, FLAG_UNRELATED),
    )


def parabolic_example() -> SurfaceCertificate:
    """2-parabolic certificate of genus 1 with simplicity 1: q_B + 1 = 3."""
    w_b = deep_closure_word(y_generator(1), x_generator(1))
    curves = (
        Curve(name="a1", role="A", index=1, pushoff_plus=(x_generator(1),) * 2),
        Curve(name="b1", role="B", index=1, pushoff_plus=w_b, m=11),
    )
    return SurfaceCertificate(
        kind="parabolic",
        genus=1,
        n=2,
        curves=curves,
        asserted_flags=(FLAG_REGULAR_SPINE, FLAG_UNRELATED, "simplicity=1"),
    )


def unknotted_example() -> SurfaceCertificate:
    """2-unknotted certificate of genus 1, chi-flavored.

    Both pushoffs are pure chi factors with q_chi_A + q_chi_B = 3; the
    exclusion pattern then forces mu, zeta and x^l trivial.
    """
    chi_a = deep_closure_word(x_generator(1), y_generator(1))
    chi_b = mid_closure_word(y_generator(1), x_generator(1))
    curves = (
        Curve(
            name="a1",
            role="A",
            index=1,
            pushoff_plus=chi_a,
            factors=UnknottedFactors(x_exponent=0, chi=chi_a, m_chi=11),
        ),
        Curve(
            name="b1",
            role="B",
            index=1,
            pushoff_minus=chi_b,
            factors=UnknottedFactors(chi=chi_b, m_chi=5),
        ),
    )
    return SurfaceCertificate(
        kind="unknotted",
        genus=1,
        n=2,
        curves=curves,
        asserted_flags=(FLAG_REGULAR_SPINE, "simplicity=1"),
    )


def twist_unknotted_example(n: int = 4, s: int = 1) -> SurfaceCertificate:
    """n-unknotted certificate whose pairs are pure band twists.

    [gamma_A] = x_A^2 and [gamma_B] = 1 satisfy the definition at every
    level with all q-equations vacuous; this is the family the
    level-shift translation acts on at desk scale.
    """
    curves = (
        Curve(
            name="a1",
            role="A",
            index=1,
            pushoff_plus=(x_generator(1),) * 2,
            factors=UnknottedFactors(x_exponent=2),
        ),
        Curve(
            name="b1",
            role="B",
            index=1,
            pushoff_minus=(),
            factors=UnknottedFactors(),
        ),
    )
    return SurfaceCertificate(
        kind="unknotted",
        genus=1,
        n=n,
        curves=curves,
        asserted_flags=(FLAG_REGULAR_SPINE, f"simplicity={s}"),
    )


# ---------------------------------------------------------------------------
# Mutation testing support


def checked_words(cert: SurfaceCertificate) -> list[tuple[str, str]]:
    """(curve name, field) pairs for the words the verifier conditions read."""
    out = []
    for curve in cert.curves:
        if cert.kind == "hyperbolic" and curve.role != "A":
            continue
        if cert.kind == "parabolic" and curve.role != "B":
            continue
        if curve.pushoff_plus:
            out.append((curve.name, "pushoff_plus"))
        if curve.pushoff_minus:
            out.append((curve.name, "pushoff_minus"))
    return out


def mutate_certificate(
    cert: SurfaceCertificate, rng: random.Random
) -> SurfaceCertificate:
    """Substitute one letter of one checked pushoff word by another letter.

    For unknotted certificates the matching factor word is edited in
    step, so the mutation tests the membership conditions rather than
    only the factorization product.
    """
    name, field = rng.choice(checked_words(cert))
    curve = next(c for c in cert.curves if c.name == name)
    word = getattr(curve, field)
    pos = rng.randrange(len(word))
    choices = [s * g for g in range(1, 2 * cert.genus + 1) for s in (1, -1) if s * g != word[pos]]
    mutated = word[:pos] + (rng.choice(choices),) + word[pos + 1:]
    changes = {field: mutated}
    if curve.factors is not None and curve.factors.chi == word:
        changes["factors"] = UnknottedFactors(**{**as_dict(curve.factors), "chi": mutated})
    curves = tuple(replace(c, **changes) if c is curve else c for c in cert.curves)
    return replace(cert, curves=curves)
