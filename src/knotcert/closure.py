"""Verifiers of the normal-closure certificate kinds: elliptic, parabolic
and unknotted.

These kinds check memberships in the lower central series of the normal
closure of the A- or B-duals, through the Schreier rewrite of
``certify._membership``, and their q-equations; the unknotted kind also
checks its witness factorizations and their exclusion pattern.  The
data model, the report builder, the membership primitive and the
hyperbolic verifier, which checks staged quotient memberships, stay in
``certify``.

This is a plain module.  ``certify.certifier`` imports it for these
three kinds only, and ``translate`` imports it, so a hyperbolic job
compiles neither it nor ``schreier``.
"""

from __future__ import annotations

from .certify import (
    FLAG_REGULAR_SPINE,
    FLAG_UNRELATED,
    CertificateError,
    CertificateReport,
    Curve,
    SurfaceCertificate,
    UnknottedFactors,
    _membership,
    _orient,
    _orientations,
    _ReportBuilder,
    a_dual_set,
    b_dual_set,
    x_generator,
)
from .words import concat, invert, reduce_word


# ---------------------------------------------------------------------------
# n-elliptic


def _paired_curves(cert: SurfaceCertificate) -> list[tuple[Curve, Curve]]:
    b_by_name = {c.name: c for c in cert.curves_of_role("B")}
    b_by_index = {c.index: c for c in cert.curves_of_role("B")}
    pairs = []
    used = set()
    for a in cert.curves_of_role("A"):
        if a.pair is not None:
            b = b_by_name.get(a.pair)
            if b is None:
                raise CertificateError(f"curve {a.name}: no B-curve named {a.pair!r}")
        else:
            b = b_by_index.get(a.index)
            if b is None:
                raise CertificateError(f"curve {a.name}: no dual B-curve with index {a.index}")
        if b.name in used:
            raise CertificateError(f"B-curve {b.name} paired twice")
        used.add(b.name)
        pairs.append((a, b))
    return pairs


def certify_elliptic(cert: SurfaceCertificate, n: int | None = None) -> CertificateReport:
    """Check paired normal-closure memberships and the q-sum for each pair.

    For each dual pair (A, B) one orientation epsilon must put the
    A-pushoff in the (m_A+1)-st lower central term of the closure of
    the A-duals and the opposite pushoff of B in the (m_B+1)-st term of
    the closure of the B-duals, with q_A + q_B = n + 1 computed from
    the Schreier-alphabet decompositions at depths m_A and m_B.
    """
    rb = _ReportBuilder("elliptic", cert, n, [FLAG_REGULAR_SPINE, FLAG_UNRELATED])
    s_a = a_dual_set(cert.genus)
    s_b = b_dual_set(cert.genus)
    per_pair = {}
    for a, b in _paired_curves(cert):
        if a.m is None or b.m is None:
            raise CertificateError(f"pair ({a.name}, {b.name}): membership depths m required")
        eps, tried = _orient(
            (a, b),
            lambda wa, wb: (_membership(wa, a.m, subset=s_a), _membership(wb, b.m, subset=s_b)),
        )
        if not tried:
            raise CertificateError(f"pair ({a.name}, {b.name}): no orientation has both pushoffs")
        if eps is None:
            for curve, at in zip((a, b), tried[0][1]):
                rb.add("closure-membership", "pass" if at.passed else "fail", curve.name, at.detail)
            continue
        at_a, at_b = tried[-1][1]
        rb.add("closure-membership", "pass", a.name, f"epsilon {eps}: {at_a.detail}")
        rb.add("closure-membership", "pass", b.name, f"epsilon -{eps}: {at_b.detail}")
        qa, qb = at_a.q(), at_b.q()
        per_pair[a.name] = {
            "epsilon": eps,
            "m_A": a.m,
            "m_B": b.m,
            "q_A": qa.q,
            "q_B": qb.q,
            "k_A": qa.k,
            "k_B": qb.k,
        }
        rb.equation("q-sum", a.name, (qa.q, qb.q))
    rb.quantities["per_pair"] = per_pair
    return rb.finish()


# ---------------------------------------------------------------------------
# n-parabolic


def certify_parabolic(
    cert: SurfaceCertificate, n: int | None = None, s: int | None = None
) -> CertificateReport:
    """Check the B-side closure memberships guarded by the simplicity s.

    With n <= s the definition imposes no word conditions and the
    certificate is vacuously acceptable; with n > s every B-pushoff must
    lie in the (m+1)-st term of the B-closure with q + s = n + 1.
    """
    rb = _ReportBuilder("parabolic", cert, n, [FLAG_REGULAR_SPINE, FLAG_UNRELATED])
    n = rb.n
    if s is None:
        s = cert.simplicity()
    if s is None:
        rb.missing.append("simplicity=<s>")
        rb.quantities["simplicity"] = None
        return rb.finish()
    if s < 1:
        raise CertificateError("simplicity must be >= 1")
    rb.quantities["simplicity"] = s
    if n <= s:
        rb.add("b-closure-conditions", "vacuous", None, f"n = {n} <= s = {s}")
        return rb.finish()
    s_b = b_dual_set(cert.genus)
    per_curve = {}
    for curve in cert.curves_of_role("B"):
        if curve.m is None:
            raise CertificateError(f"curve {curve.name}: membership depth m required")
        eps, tried = _orient((curve,), lambda w: (_membership(w, curve.m, subset=s_b),))
        if not tried:
            raise CertificateError(f"curve {curve.name} has no pushoff word")
        if eps is None:
            rb.add("closure-membership", "fail", curve.name, tried[0][1][0].detail)
            continue
        at = tried[-1][1][0]
        rb.add("closure-membership", "pass", curve.name, f"epsilon {eps}: {at.detail}")
        info = at.q()
        per_curve[curve.name] = {"epsilon": eps, "m": curve.m, "q": info.q, "k": info.k}
        rb.equation("q-plus-s", curve.name, (info.q, s))
    rb.quantities["per_curve"] = per_curve
    return rb.finish()


# ---------------------------------------------------------------------------
# n-unknotted


def _exclusion_holds(chi_a: bool, chi_b: bool, zeta: bool, mu: bool, x: bool) -> bool:
    """The mixed-type definition's exclusions, given which of chi_A, chi_B,
    zeta, mu and x^l are nontrivial: chi_A and chi_B are trivial together,
    and nontrivial exactly when zeta, mu and x^l are all trivial."""
    return chi_a == chi_b == (not (zeta or mu or x))


def certify_unknotted(cert: SurfaceCertificate, n: int | None = None) -> CertificateReport:
    """Check the witness factorizations of the mixed-type definition.

    Per pair: the supplied factors must multiply to the pushoffs; mu
    must survive the staged quotient at depth m_mu with q_mu = n+1; a
    chi-pair must sit in the two closures with q-sum n+1; zeta must sit
    in the B-closure with q + s = n+1; and the triviality pattern among
    the factors must match the definition's exclusions.  Equations are
    checked exactly as written even where the triviality bounds
    elsewhere use q-1; the report notes that tension.
    """
    rb = _ReportBuilder("unknotted", cert, n, [FLAG_REGULAR_SPINE])
    n = rb.n
    s = cert.simplicity()
    rb.quantities["simplicity"] = s
    rb.quantities["note"] = (
        "q-equations checked as written; the triviality bound downstream uses q-1"
    )
    s_a = a_dual_set(cert.genus)
    s_b = b_dual_set(cert.genus)
    per_pair = {}
    for a, b in _paired_curves(cert):
        fa = a.factors or UnknottedFactors()
        fb = b.factors or UnknottedFactors()
        # gamma_A = x^l chi mu exactly when gamma_A (chi mu)^-1 reduces to |l|
        # letters x, with x = x_i or x_i^-1 by the sign of l; x^l is never built
        x = x_generator(a.index) if fa.x_exponent >= 0 else -x_generator(a.index)
        chi_mu_inverse = invert(concat(fa.chi, fa.mu))
        product_b = concat(fb.zeta, fb.chi)
        eps = None
        for e, (wa, wb) in _orientations((a, b)):
            rest = concat(wa, chi_mu_inverse)
            if len(rest) == abs(fa.x_exponent) == rest.count(x) and product_b == reduce_word(wb):
                eps = e
                break
        if eps is None:
            rb.add(
                "factorization-product",
                "error",
                a.name,
                "supplied factors do not multiply to the pushoff words",
            )
            continue
        rb.add("factorization-product", "pass", a.name, f"epsilon {eps}")
        pair_data: dict = {"epsilon": eps}

        # (a) staged quotient membership of mu with q_mu = n+1
        if fa.mu:
            if fa.m_mu is None:
                raise CertificateError(f"curve {a.name}: m_mu required for nontrivial mu")
            mu = _membership(fa.mu, fa.m_mu, index=a.index)
            if mu.passed:
                rb.add("mu-membership", "pass", a.name, f"in F^({fa.m_mu + 1}) after quotient")
                info = mu.q()
                pair_data["q_mu"] = info.q
                if info.q == n + 1:
                    rb.add("mu-q-equation", "pass", a.name, f"q_mu = {n + 1}")
                else:
                    rb.add("mu-q-equation", "fail", a.name, f"q_mu = {info.q} != {n + 1}")
            else:
                rb.add("mu-membership", "fail", a.name, f"not in F^({fa.m_mu + 1})")
        else:
            rb.add("mu-membership", "vacuous", a.name, "mu = 1")

        # (b) chi-pair closure memberships with q-sum n+1
        if fa.chi or fb.chi:
            if not (fa.chi and fb.chi):
                rb.add("chi-pairing", "fail", a.name, "exactly one of chi_A, chi_B is trivial")
            else:
                if fa.m_chi is None or fb.m_chi is None:
                    raise CertificateError(
                        f"pair ({a.name}, {b.name}): m_chi required for nontrivial chi"
                    )
                at_a = _membership(fa.chi, fa.m_chi, subset=s_a)
                at_b = _membership(fb.chi, fb.m_chi, subset=s_b)
                for curve, at in ((a, at_a), (b, at_b)):
                    rb.add("chi-membership", "pass" if at.passed else "fail", curve.name, at.detail)
                if at_a.passed and at_b.passed:
                    qa, qb = at_a.q(), at_b.q()
                    pair_data["q_chi_A"] = qa.q
                    pair_data["q_chi_B"] = qb.q
                    rb.equation("chi-q-sum", a.name, (qa.q, qb.q))
        else:
            rb.add("chi-membership", "vacuous", a.name, "chi_A = chi_B = 1")

        # (c) exclusion pattern
        chi_a, chi_b, zeta, mu, x = map(bool, (fa.chi, fb.chi, fb.zeta, fa.mu, fa.x_exponent))
        if _exclusion_holds(chi_a, chi_b, zeta, mu, x):
            rb.add("exclusion-pattern", "pass", a.name)
        else:
            rb.add(
                "exclusion-pattern",
                "fail",
                a.name,
                f"chi_both={chi_a and chi_b} zeta=1:{not zeta} mu=1:{not mu} x^l=1:{not x}",
            )

        # (d) zeta closure membership with q + s = n+1
        if fb.zeta:
            if fb.m_zeta is None:
                raise CertificateError(f"curve {b.name}: m_zeta required for nontrivial zeta")
            zeta = _membership(fb.zeta, fb.m_zeta, subset=s_b)
            rb.add("zeta-membership", "pass" if zeta.passed else "fail", b.name, zeta.detail)
            if zeta.passed and s is not None:
                info = zeta.q()
                pair_data["q_zeta"] = info.q
                rb.equation("zeta-q-equation", b.name, (info.q, s))
            elif zeta.passed and "simplicity=<s>" not in rb.missing:
                rb.missing.append("simplicity=<s>")
        else:
            rb.add("zeta-membership", "vacuous", b.name, "zeta = 1")
        per_pair[a.name] = pair_data
    rb.quantities["per_pair"] = per_pair
    return rb.finish()
