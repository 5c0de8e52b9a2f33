"""Certificate translations: the index shifts between certificate kinds.

Each shift rewrites a valid source certificate into a certificate of
another kind or level and re-verifies the result with the verifiers of
``certify``.  This is a plain module, imported only by the ``translate``
command (and by library callers), so a ``certify`` job never compiles it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ._value import Record
from .certify import (
    CERTIFIERS,
    CertificateReport,
    Curve,
    GuardViolation,
    SurfaceCertificate,
    TranslationError,
    UnknottedFactors,
    _Membership,
    _membership,
    _paired_curves,
    b_dual_set,
    certify_hyperbolic,
    certify_unknotted,
    x_generator,
    y_generator,
)


class TranslationResult(Record):
    certificate: SurfaceCertificate
    report: CertificateReport
    source_report: CertificateReport


def _swap_pairs_in_word(word: tuple[int, ...], swapped: set[int]) -> tuple[int, ...]:
    """Exchange x_i <-> y_i for every pair index in ``swapped``."""
    swap = {}
    for i in swapped:
        x, y = x_generator(i), y_generator(i)
        swap.update({x: y, y: x, -x: -y, -y: -x})
    return tuple(swap.get(letter, letter) for letter in word)


def _relabel_curve(curve: Curve, role: str, swapped: set[int]) -> Curve:
    def w(word):
        return None if word is None else _swap_pairs_in_word(word, swapped)

    return replace(curve, role=role, pushoff_plus=w(curve.pushoff_plus),
                   pushoff_minus=w(curve.pushoff_minus), pair=None, factors=None)


def _verify_source(cert: SurfaceCertificate) -> CertificateReport:
    report = CERTIFIERS[cert.kind](cert)
    if report.verdict != "valid":
        raise TranslationError(f"source certificate is {report.verdict}")
    return report


# source kind -> (level factor f, whether the simplicity s guards the shift):
# the source must sit at level f*n, and a guarded shift needs f*n > s+1
_SHIFTS = {"hyperbolic": (1, False), "elliptic": (2, False),
           "parabolic": (1, True), "unknotted": (2, True)}


def _hyperbolic_target(
    cert: SurfaceCertificate,
    n: int,
    gammas: Sequence[Curve],
    duals: Sequence[Curve],
    swapped: set[int],
    source_report: CertificateReport,
) -> TranslationResult:
    """Relabel ``gammas`` as A-curves and ``duals`` as B-curves, then verify at level n."""
    curves = tuple(
        [_relabel_curve(c, "A", swapped) for c in gammas]
        + [_relabel_curve(c, "B", swapped) for c in duals]
    )
    target = replace(cert, kind="hyperbolic", n=n, curves=curves)
    return TranslationResult(target, certify_hyperbolic(target), source_report)


def translate_certificate(cert: SurfaceCertificate, n: int) -> TranslationResult:
    """Apply the index shift of ``cert``'s own kind and re-verify the result.

    A caller that expects one kind checks ``cert.kind`` first, as the
    ``translate KIND`` command does.  hyperbolic: identity.  elliptic at
    level 2n: the member of each dual pair with q >= n+1 becomes a
    gamma-curve of an n-hyperbolic certificate (relabeling duals where
    the B-curve is chosen).
    parabolic at level n with simplicity s and n > s+1: the B-half
    basis becomes an (n-s-1)-hyperbolic certificate.  unknotted at
    level 2n with 2n-s-1 > 1: the words survive at level 2n-s-1 with
    the membership depths re-solved so the q-equations hold there.
    """
    kind = cert.kind
    factor, guarded = _SHIFTS[kind]
    level = factor * n
    if cert.n != level:
        raise TranslationError(
            f"certificate level {cert.n} != n = {n}" if factor == 1
            else f"{kind} source must have level 2n = {level}, got {cert.n}")
    s = cert.simplicity()
    if guarded and s is None:
        raise TranslationError(f"{kind} source lacks a simplicity assertion")
    if guarded and not level > s + 1:
        name = "n" if factor == 1 else "2n"
        raise GuardViolation(f"guard violated: need {name} > s+1, got {name} = {level}, s = {s}")
    if kind == "unknotted" and level - s - 1 < 2:
        # unknotted certificates need n > 1, so the target level must exceed 1
        raise GuardViolation(f"guard violated: need 2n-s-1 > 1, got 2n-s-1 = {level - s - 1}")
    source_report = _verify_source(cert)
    if kind == "hyperbolic":
        return TranslationResult(cert, source_report, source_report)

    if kind == "elliptic":
        per_pair = source_report.quantities["per_pair"]
        swapped: set[int] = set()
        chosen: list[Curve] = []
        others: list[Curve] = []
        for a, b in _paired_curves(cert):
            # valid at level 2n means q_A + q_B = 2n+1, so q_A < n+1 gives q_B >= n+1
            if per_pair[a.name]["q_A"] >= n + 1:
                chosen.append(a)
                others.append(b)
            else:
                swapped.add(a.index)
                chosen.append(b)
                others.append(a)
        return _hyperbolic_target(cert, n, chosen, others, swapped, source_report)

    if kind == "parabolic":
        return _hyperbolic_target(
            cert, level - s - 1, cert.curves_of_role("B"), cert.curves_of_role("A"),
            set(range(1, cert.genus + 1)), source_report,
        )

    # unknotted
    target_n = level - s - 1
    per_pair = source_report.quantities["per_pair"]
    s_b = b_dual_set(cert.genus)
    curves = []
    for a, b in _paired_curves(cert):
        fa = a.factors or UnknottedFactors()
        fb = b.factors or UnknottedFactors()
        # the source is valid, so every nontrivial chi and zeta lies in its
        # closure; depth 0 rewrites without expanding
        mu = _membership(fa.mu, 0, index=a.index)
        chi_b = _membership(fb.chi, 0, subset=s_b)
        zeta = _membership(fb.zeta, 0, subset=s_b)
        new_fa = UnknottedFactors(
            fa.x_exponent, fa.chi, fa.mu,
            m_mu=_resolve_depth(fa.mu, mu, fa.m_mu, target_n + 1), m_chi=fa.m_chi,
        )
        chi_target = None
        if fa.chi and fb.chi:
            # chi_A keeps its source depth, so its q-value is the source's
            chi_target = target_n + 1 - per_pair[a.name]["q_chi_A"]
        new_fb = UnknottedFactors(
            chi=fb.chi,
            zeta=fb.zeta,
            m_chi=_resolve_depth(fb.chi, chi_b, fb.m_chi, chi_target),
            m_zeta=_resolve_depth(fb.zeta, zeta, fb.m_zeta, target_n + 1 - s),
        )
        curves += [replace(a, factors=new_fa), replace(b, factors=new_fb)]
    target = replace(cert, n=target_n, curves=tuple(curves))
    return TranslationResult(target, certify_unknotted(target), source_report)


def _resolve_depth(
    word: tuple[int, ...],
    at: _Membership,
    m_source: int | None,
    q_target: int | None,
) -> int | None:
    """Largest depth m <= m_source at which ``at``'s q-value hits ``q_target``.

    Deeper membership implies shallower membership, so lowering m keeps
    the membership valid while re-aiming the q-equation.  Trivial words
    need no depth, and ``q_target`` None keeps the source depth.
    """
    if not word or m_source is None or q_target is None:
        return m_source
    for m in range(m_source, 0, -1):
        if at.q(m).q == q_target:
            return m
    raise TranslationError(
        f"no membership depth <= {m_source} realizes the target q-value {q_target}"
    )
