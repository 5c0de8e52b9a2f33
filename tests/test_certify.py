import itertools
import json
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotcert.certify import (
    CertificateError,
    Curve,
    GuardViolation,
    SurfaceCertificate,
    TranslationError,
    UnknottedFactors,
    certificate_from_dict,
    certificate_to_dict,
    certify_elliptic,
    certify_hyperbolic,
    certify_parabolic,
    certify_unknotted,
    q_of_word,
)
from knotcert.pipeline import spine_link_pipeline
from knotcert.synth import (
    checked_words,
    elliptic_example,
    hyperbolic_example,
    mutate_certificate,
    parabolic_example,
    twist_unknotted_example,
    unknotted_example,
)
from knotcert.translate import _resolve_depth, _swap_pairs_in_word, translate_certificate
from knotcert import certify, decomp, magnus, translate
from knotcert.bounds import partition_k, q, q_param
from knotcert.decomp import decompose
from knotcert.schreier import NotInNormalClosure, rewrite_to_word
from knotcert.words import (
    commutator_word,
    concat,
    conjugate,
    generators_in,
    invert,
    kill_generators,
    parse_word,
    reduce_word,
)
from conftest import letters_strategy, spine_example, words_strategy

DATA = Path(__file__).resolve().parent.parent / "src" / "knotcert" / "data"

FLAGS = ("regular-spine",)


def vacuous_parabolic_example(n=3, s=3):
    """Parabolic certificate with n <= s: the word conditions are vacuous."""
    curves = (
        Curve(name="a1", role="A", index=1, pushoff_plus=(1,)),
        Curve(name="b1", role="B", index=1, pushoff_plus=(2,), m=1),
    )
    return SurfaceCertificate(
        kind="parabolic", genus=1, n=n, curves=curves,
        asserted_flags=("regular-spine", "geometrically-unrelated", f"simplicity={s}"),
    )


def plain_hyperbolic(word, n, genus=1, flags=FLAGS):
    curves = [Curve(name="a1", role="A", index=1, pushoff_plus=word)]
    for i in range(2, genus + 1):
        curves.append(
            Curve(name=f"a{i}", role="A", index=i, pushoff_plus=commutator_word(
                tuple((2 * i - 1) if j % 2 == 0 else 2 * i for j in range(n + 1))
            ))
        )
    return SurfaceCertificate(
        kind="hyperbolic", genus=genus, n=n, curves=tuple(curves), asserted_flags=flags
    )


class TestHyperbolic:
    def test_weight_commutator_accepted(self):
        cert = plain_hyperbolic(commutator_word((1, 2, 1, 2)), 3)
        report = certify_hyperbolic(cert)
        assert report.verdict == "valid"
        assert report.quantities["l_n_S"] is not None

    def test_single_generator_rejected(self):
        for n in (1, 2, 3):
            cert = plain_hyperbolic((1,), n)
            assert certify_hyperbolic(cert).verdict == "invalid"

    def test_quotient_stage(self):
        # stage-2 word needs the first pair killed
        word = conjugate(commutator_word((3, 4, 3, 4)), (1,))
        cert = SurfaceCertificate(
            kind="hyperbolic",
            genus=2,
            n=3,
            curves=(
                Curve(name="a1", role="A", index=1,
                      pushoff_plus=commutator_word((1, 2, 1, 2))),
                Curve(name="a2", role="A", index=2, pushoff_plus=word),
            ),
            asserted_flags=FLAGS,
        )
        assert certify_hyperbolic(cert).verdict == "valid"
        # without the quotient the conjugated word is deeper than degree 1
        # but the raw word fails at stage 1 ordering
        reordered = SurfaceCertificate(
            kind="hyperbolic",
            genus=2,
            n=3,
            curves=(
                Curve(name="a1", role="A", index=1, pushoff_plus=word),
                Curve(name="a2", role="A", index=2,
                      pushoff_plus=commutator_word((3, 4, 3, 4))),
            ),
            asserted_flags=FLAGS,
        )
        assert certify_hyperbolic(reordered).verdict == "valid"

    def test_either_sign_suffices(self):
        cert = SurfaceCertificate(
            kind="hyperbolic",
            genus=1,
            n=2,
            curves=(
                Curve(
                    name="a1", role="A", index=1,
                    pushoff_plus=(1,),  # too shallow
                    pushoff_minus=commutator_word((1, 2, 1)),
                ),
            ),
            asserted_flags=FLAGS,
        )
        report = certify_hyperbolic(cert)
        assert report.verdict == "valid"
        assert report.quantities["per_curve"]["a1"]["sign"] == "-"

    def test_every_curve_failing_gives_no_bound(self):
        # genus 1: no pushoff reaches F^(4), so nothing follows about the
        # boundary; in particular it is not reported as the trivial knot
        cert = SurfaceCertificate(
            kind="hyperbolic",
            genus=1,
            n=3,
            curves=(
                Curve(name="a1", role="A", index=1,
                      pushoff_plus=(1,), pushoff_minus=commutator_word((1, 2))),
            ),
            asserted_flags=FLAGS,
        )
        report = certify_hyperbolic(cert)
        assert report.verdict == "invalid"
        assert report.quantities["l_n_S"] is None
        assert report.quantities["conclusion"] == (
            "no A-curve passed its quotient membership: no triviality bound"
        )

    def test_genus_0_boundary_is_trivial(self):
        cert = SurfaceCertificate(
            kind="hyperbolic", genus=0, n=2, curves=(), asserted_flags=FLAGS
        )
        report = certify_hyperbolic(cert)
        assert report.verdict == "valid"
        assert report.quantities["l_n_S"] is None
        assert report.quantities["conclusion"] == "genus 0: boundary is the trivial knot"

    def test_missing_flag_not_checkable(self):
        cert = plain_hyperbolic(commutator_word((1, 2, 1)), 2, flags=())
        report = certify_hyperbolic(cert)
        assert report.verdict == "not-checkable-from-words"
        assert "regular-spine" in report.missing_flags

    def test_synthetic_family(self):
        for genus in (1, 2, 3):
            for n in (2, 3, 5):
                report = certify_hyperbolic(hyperbolic_example(genus, n))
                assert report.verdict == "valid", (genus, n)

    def test_generator_renaming_invariance(self):
        # swapping x and y within each pair preserves the verdict
        base = hyperbolic_example(2, 3)
        from knotcert.translate import _swap_pairs_in_word

        swapped_curves = []
        for c in base.curves:
            swapped_curves.append(
                Curve(
                    name=c.name, role=c.role, index=c.index,
                    pushoff_plus=None if c.pushoff_plus is None else _swap_pairs_in_word(c.pushoff_plus, {1, 2}),
                    pushoff_minus=None if c.pushoff_minus is None else _swap_pairs_in_word(c.pushoff_minus, {1, 2}),
                )
            )
        renamed = SurfaceCertificate(
            kind="hyperbolic", genus=2, n=3,
            curves=tuple(swapped_curves), asserted_flags=base.asserted_flags,
        )
        assert certify_hyperbolic(renamed).verdict == certify_hyperbolic(base).verdict

    def test_malformed_missing_pushoff(self):
        cert = SurfaceCertificate(
            kind="hyperbolic", genus=1, n=2,
            curves=(Curve(name="a1", role="A", index=1),),
            asserted_flags=FLAGS,
        )
        with pytest.raises(CertificateError):
            certify_hyperbolic(cert)


class TestElliptic:
    def test_shipped_example(self):
        report = certify_elliptic(elliptic_example())
        assert report.verdict == "valid"
        data = report.quantities["per_pair"]["a1"]
        assert data["q_A"] == 2 and data["q_B"] == 1

    def test_sum_mismatch_invalid(self):
        cert = elliptic_example()
        bad = SurfaceCertificate(
            kind="elliptic",
            genus=1,
            n=3,  # now q_A + q_B = 3 != n + 1 = 4
            curves=cert.curves,
            asserted_flags=cert.asserted_flags,
        )
        report = certify_elliptic(bad)
        assert report.verdict == "invalid"
        assert any(c.name == "q-sum" and c.status == "fail" for c in report.conditions)

    def test_not_in_closure_is_error(self):
        cert = elliptic_example()
        curves = [
            Curve(name="a1", role="A", index=1, pushoff_plus=(2,), m=1),
            cert.curves[1],
        ]
        report = certify_elliptic(
            SurfaceCertificate(kind="elliptic", genus=1, n=2,
                               curves=tuple(curves), asserted_flags=cert.asserted_flags)
        )
        assert report.verdict == "invalid"
        assert any("not in normal closure" in c.detail for c in report.conditions)

    def test_requires_n_above_one(self):
        cert = elliptic_example()
        with pytest.raises(CertificateError):
            certify_elliptic(cert, n=1)

    def test_missing_unrelated_flag(self):
        cert = elliptic_example()
        stripped = SurfaceCertificate(
            kind="elliptic", genus=1, n=2, curves=cert.curves,
            asserted_flags=("regular-spine",),
        )
        report = certify_elliptic(stripped)
        assert report.verdict == "not-checkable-from-words"


class TestParabolic:
    def test_shipped_example(self):
        report = certify_parabolic(parabolic_example())
        assert report.verdict == "valid"
        assert report.quantities["per_curve"]["b1"]["q"] == 2

    def test_vacuous_when_n_le_s(self):
        report = certify_parabolic(vacuous_parabolic_example(n=3, s=3))
        assert report.verdict == "valid"
        assert any(c.status == "vacuous" for c in report.conditions)

    def test_missing_simplicity_not_checkable(self):
        cert = parabolic_example()
        stripped = SurfaceCertificate(
            kind="parabolic", genus=1, n=2, curves=cert.curves,
            asserted_flags=("regular-spine", "geometrically-unrelated"),
        )
        report = certify_parabolic(stripped)
        assert report.verdict == "not-checkable-from-words"

    def test_wrong_q_plus_s(self):
        cert = parabolic_example()
        # at n = 3 the condition bites (n > s) but q + s = 3 != n + 1 = 4
        report = certify_parabolic(cert, n=3, s=1)
        assert report.verdict == "invalid"
        assert any(c.name == "q-plus-s" and c.status == "fail" for c in report.conditions)


class TestUnknotted:
    def test_shipped_example(self):
        report = certify_unknotted(unknotted_example())
        assert report.verdict == "valid"
        pair = report.quantities["per_pair"]["a1"]
        assert pair["q_chi_A"] + pair["q_chi_B"] == 3

    def test_twist_family(self):
        for n in (2, 3, 4, 6):
            report = certify_unknotted(twist_unknotted_example(n=n))
            assert report.verdict == "valid", n

    def test_exclusion_pattern_violation(self):
        # chi_A nontrivial but chi_B trivial
        chi_a = unknotted_example().curves[0].factors.chi
        curves = (
            Curve(
                name="a1", role="A", index=1, pushoff_plus=chi_a,
                factors=UnknottedFactors(chi=chi_a, m_chi=11),
            ),
            Curve(
                name="b1", role="B", index=1, pushoff_minus=(),
                factors=UnknottedFactors(),
            ),
        )
        cert = SurfaceCertificate(
            kind="unknotted", genus=1, n=2, curves=curves,
            asserted_flags=("regular-spine", "simplicity=1"),
        )
        report = certify_unknotted(cert)
        assert report.verdict == "invalid"
        assert any(c.name == "chi-pairing" and c.status == "fail" for c in report.conditions)

    @pytest.mark.parametrize("chi_a, chi_b, zeta, mu, x", itertools.product((False, True), repeat=5))
    def test_exclusion_condition_matches_the_two_clause_rule(self, chi_a, chi_b, zeta, mu, x):
        # the rule as it was first written: a pattern clause and an iff clause
        chi_both = chi_a and chi_b
        pattern = (not chi_a and not chi_b) or (chi_both and zeta == x)
        iff = chi_both == (not zeta and not mu and not x)
        assert certify._exclusion_holds(chi_a, chi_b, zeta, mu, x) == (pattern and iff)

    def test_product_mismatch_is_error(self):
        base = unknotted_example()
        broken = SurfaceCertificate(
            kind="unknotted", genus=1, n=2,
            curves=(
                Curve(
                    name="a1", role="A", index=1,
                    pushoff_plus=(1, 2),
                    factors=base.curves[0].factors,
                ),
                base.curves[1],
            ),
            asserted_flags=base.asserted_flags,
        )
        report = certify_unknotted(broken)
        assert report.verdict == "invalid"
        assert any(c.name == "factorization-product" and c.status == "error"
                   for c in report.conditions)

    MU = commutator_word((1, 2, 1))

    @pytest.mark.parametrize("word, l, chi, mu, status", [
        ((1, 1, 1), 3, (), (), "pass"),
        ((-1, -1), -2, (), (), "pass"),
        ((1, 2, -2), 1, (), (), "pass"),
        ((1, -1), 0, (), (), "pass"),
        ((1, 1) + MU, 2, (), MU, "pass"),
        ((1, 1, 2) + MU, 2, (2,), MU, "pass"),
        ((1, 1), -2, (), (), "error"),
        ((-1, -1), 2, (), (), "error"),
        ((2, 2), 2, (), (), "error"),
        ((1, 2), 2, (), (), "error"),
        ((1, 1, 1), 2, (), (), "error"),
        ((1,), 0, (), (), "error"),
        (MU + (1, 1), 2, (), MU, "error"),
        ((1, 1) + MU + (2,), 2, (2,), MU, "error"),
        ((1, 1), 10**9, (), (), "error"),
    ])
    def test_x_power_factor(self, word, l, chi, mu, status):
        # gamma_A = x_1^l chi mu: every letter left after dividing off chi mu
        # must be x_1 with the sign of l, and there must be exactly |l| of them
        a1, b1 = twist_unknotted_example().curves
        factors = UnknottedFactors(x_exponent=l, chi=chi, mu=mu, m_chi=1, m_mu=2)
        a1 = replace(a1, pushoff_plus=word, factors=factors)
        report = certify_unknotted(replace(twist_unknotted_example(), curves=(a1, b1)))
        product = next(c for c in report.conditions if c.name == "factorization-product")
        assert product.status == status

    def test_degenerate_reduces_to_membership_check(self):
        # all chi = zeta = 1, mu a weight-(m+1) commutator, x^l = x1^2
        mu = commutator_word((1, 2, 1))
        word = parse_word("g1 g1") + mu
        curves = (
            Curve(
                name="a1", role="A", index=1, pushoff_plus=word,
                factors=UnknottedFactors(x_exponent=2, mu=mu, m_mu=2),
            ),
            Curve(name="b1", role="B", index=1, pushoff_minus=(),
                  factors=UnknottedFactors()),
        )
        cert = SurfaceCertificate(
            kind="unknotted", genus=1, n=2, curves=curves,
            asserted_flags=("regular-spine", "simplicity=1"),
        )
        report = certify_unknotted(cert)
        # membership holds; the q-equation decides the verdict, exactly as
        # written: q_mu = q(3) = 0 != 3, so this certificate is invalid
        assert any(c.name == "mu-membership" and c.status == "pass" for c in report.conditions)
        assert report.verdict == "invalid"


class TestTranslations:
    def test_elliptic_to_hyperbolic(self):
        result = translate_certificate(elliptic_example(), 1)
        assert result.certificate.kind == "hyperbolic"
        assert result.certificate.n == 1
        assert result.report.verdict == "valid"

    def test_parabolic_guard(self):
        with pytest.raises(GuardViolation):
            translate_certificate(parabolic_example(), 2)

    @pytest.mark.parametrize("n, s", [(3, 1), (4, 1), (5, 2)])
    def test_parabolic_to_hyperbolic(self, n, s):
        # an empty B-pushoff lies in every closure term, with q-value
        # q(m+1) at depth m; m = 6(n+1-s)-1 makes q + s = n+1
        cert = SurfaceCertificate(
            kind="parabolic", genus=1, n=n,
            curves=(Curve(name="a1", role="A", index=1, pushoff_plus=(1, 1)),
                    Curve(name="b1", role="B", index=1, pushoff_plus=(), m=6 * (n + 1 - s) - 1)),
            asserted_flags=("regular-spine", "geometrically-unrelated", f"simplicity={s}"),
        )
        result = translate_certificate(cert, n)
        assert result.source_report.verdict == "valid"
        assert result.source_report.quantities["per_curve"]["b1"]["q"] == n + 1 - s
        target = result.certificate
        assert (target.kind, target.n, result.report.verdict) == ("hyperbolic", n - s - 1, "valid")
        # the B-half basis becomes the A-curves, with x_1 and y_1 exchanged
        assert [(c.name, c.role, c.pushoff_plus) for c in target.curves] == [
            ("b1", "A", ()), ("a1", "B", (2, 2))]

    def test_unknotted_translation(self):
        result = translate_certificate(twist_unknotted_example(n=4, s=1), 2)
        assert result.certificate.kind == "unknotted"
        assert result.certificate.n == 2
        assert result.report.verdict == "valid"

    def test_unknotted_chi_resolve(self, monkeypatch):
        # no valid source at tier-1 cost reaches the chi re-solve, so the
        # shipped level-2 chi certificate stands in for a level-4 source:
        # chi_B aims at q = 3 - q_chi_A = 1, which depth 5 gives
        cert = replace(unknotted_example(), n=4)
        source = certify_unknotted(cert, n=2)
        assert source.verdict == "valid"
        monkeypatch.setattr(translate, "_verify_source", lambda c: source)
        result = translate_certificate(cert, 2)
        assert result.source_report is source
        a1, b1 = result.certificate.curves
        assert (a1.factors.m_chi, b1.factors.m_chi) == (11, 5)
        assert (result.certificate.n, result.report.verdict) == (2, "valid")

    def test_unknotted_guard(self):
        with pytest.raises(GuardViolation):
            translate_certificate(twist_unknotted_example(n=4, s=3), 2)

    def test_identity(self):
        cert = hyperbolic_example(1, 2)
        result = translate_certificate(cert, 2)
        assert result.certificate is cert
        assert result.report.verdict == "valid"

    def test_invalid_source_rejected(self):
        bad = plain_hyperbolic((1,), 2)
        with pytest.raises(TranslationError):
            translate_certificate(bad, 2)

    def test_level_mismatch(self):
        with pytest.raises(TranslationError):
            translate_certificate(elliptic_example(), 2)


def test_swap_pairs_in_word():
    # x_i = 2i-1 and y_i = 2i trade places, with their signs, in the swapped pairs only
    assert _swap_pairs_in_word((1, -2, 3, -4, -5, 6), {1, 3}) == (2, -1, 3, -4, -6, 5)


class TestResolveDepth:
    """The unknotted shift's depth re-solve, on the shipped elliptic b1
    pushoff: its q-values at depths 5, 4, ..., 1 are 1, 0, 0, 0, 0."""

    @pytest.fixture(scope="class")
    def word_and_membership(self):
        cert = certificate_from_dict(json.loads((DATA / "elliptic_g1_n2.json").read_text()))
        (b,) = cert.curves_of_role("B")
        word = b.pushoff_minus
        at = certify._membership(word, 0, subset=certify.b_dual_set(cert.genus))
        assert [at.q(m).q for m in range(5, 0, -1)] == [1, 0, 0, 0, 0]
        return word, at

    @pytest.mark.parametrize("target, depth", [(1, 5), (0, 4)])
    def test_largest_depth_hitting_the_target(self, word_and_membership, target, depth):
        word, at = word_and_membership
        assert _resolve_depth(word, at, 5, target) == depth

    def test_source_depth_kept(self, word_and_membership):
        word, at = word_and_membership
        assert _resolve_depth(word, at, 5, None) == 5
        assert _resolve_depth((), at, 5, 0) == 5
        assert _resolve_depth(word, at, None, 0) is None

    def test_unrealizable_target(self, word_and_membership):
        word, at = word_and_membership
        with pytest.raises(TranslationError, match="target q-value 2$"):
            _resolve_depth(word, at, 5, 2)


class TestConclusions:
    """Vassiliev invariants of order <= 1 are constant on knots, so l <= 1
    gives no bound.  Empty pushoffs get q(m+1), so level n = 17 gives
    l = q(18) - 1 = 2 and level 16 gives l = 1."""

    @staticmethod
    def empty_pushoffs(n):
        curves = (Curve(name="a1", role="A", index=1, pushoff_plus=()),
                  Curve(name="b1", role="B", index=1, pushoff_plus=()))
        return SurfaceCertificate(kind="hyperbolic", genus=1, n=n, curves=curves,
                                  asserted_flags=FLAGS)

    @pytest.mark.parametrize("n, l_value, conclusion", [
        (17, 2, "boundary knot is at least 2-trivial; Vassiliev invariants of orders <= 2 vanish"),
        (16, 1, "l = 1 <= 1: no Vassiliev bound follows"),
    ])
    def test_hyperbolic(self, n, l_value, conclusion):
        report = certify_hyperbolic(self.empty_pushoffs(n))
        assert report.verdict == "valid"
        assert report.quantities["l_n_S"] == l_value
        assert report.quantities["conclusion"] == conclusion

    @pytest.mark.parametrize("n, slice_depth, conclusion, slice_conclusion", [
        (17, 9,
         "Milnor invariants of length <= 18 vanish; Vassiliev invariants of orders <= 2 "
         "vanish for the boundary knot",
         "9-slice input: Vassiliev invariants of orders <= 2 vanish"),
        (16, 8,
         "Milnor invariants of length <= 17 vanish; l = 1 <= 1: no Vassiliev bound follows",
         "8-slice input: l = 1 <= 1: no Vassiliev bound follows"),
    ])
    def test_pipeline(self, n, slice_depth, conclusion, slice_conclusion):
        report = spine_link_pipeline(self.empty_pushoffs(n), "++", slice_depth=slice_depth)
        assert (report.l_n_S, report.slice_l) == (n - 15, n - 15)
        assert report.conclusion == conclusion
        assert report.slice_conclusion == slice_conclusion


class TestSpinePipeline:
    def test_trivial_pushoffs(self):
        curves = (
            Curve(name="a1", role="A", index=1, pushoff_plus=()),
            Curve(name="b1", role="B", index=1, pushoff_plus=()),
        )
        cert = SurfaceCertificate(
            kind="hyperbolic", genus=1, n=4, curves=curves,
            asserted_flags=("regular-spine", "admissible-spine"),
        )
        report = spine_link_pipeline(cert, "++", 4)
        assert report.verdict == "valid" and report.milnor_vanish

    def test_single_generator_fails_at_length_two(self):
        curves = (
            Curve(name="a1", role="A", index=1, pushoff_plus=(2,)),
            Curve(name="b1", role="B", index=1, pushoff_plus=()),
        )
        cert = SurfaceCertificate(
            kind="hyperbolic", genus=1, n=1, curves=curves,
            asserted_flags=("admissible-spine",),
        )
        report = spine_link_pipeline(cert, "++", 1)
        assert report.verdict == "invalid" and not report.milnor_vanish

    def test_weight_commutators_vanish_exactly(self):
        cert = spine_example(2, 3)
        assert spine_link_pipeline(cert, "++++", 3).milnor_vanish is True
        assert spine_link_pipeline(cert, "++++", 4).milnor_vanish is False

    def test_missing_admissibility(self):
        cert = spine_example(1, 2)
        stripped = SurfaceCertificate(
            kind="hyperbolic", genus=1, n=2, curves=cert.curves,
            asserted_flags=("regular-spine",),
        )
        report = spine_link_pipeline(stripped, "++", 2)
        assert report.verdict == "not-checkable-from-words"
        assert report.milnor_vanish

    def test_slice_variant(self):
        cert = spine_example(1, 3)
        report = spine_link_pipeline(cert, "++", 3, slice_depth=2)
        assert report.slice_vanish is True
        assert report.slice_conclusion is not None

    def test_agreement_of_two_vanishing_criteria(self, rng):
        # coefficientwise vanishing vs longitude lcs, on the pipeline's system
        from itertools import product as iproduct

        from knotcert.magnus import LongitudeSystem, lcs_at_least, milnor_invariant

        for _ in range(8):
            n = rng.randint(1, 2)
            words = []
            for _ in range(2):
                words.append(
                    tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(0, 5)))
                )
            from knotcert.words import reduce_word

            system = LongitudeSystem(2, tuple(reduce_word(w) for w in words))
            by_lcs = all(lcs_at_least(w, n + 1) for w in system.longitudes)
            by_coeff = all(
                milnor_invariant(system, idx) == 0
                for k in range(2, n + 2)
                for idx in iproduct((1, 2), repeat=k)
            )
            assert by_lcs == by_coeff


class TestSerialization:
    def test_roundtrip_all_examples(self):
        for cert in (
            hyperbolic_example(2, 3),
            elliptic_example(),
            parabolic_example(),
            unknotted_example(),
            twist_unknotted_example(),
        ):
            data = certificate_to_dict(cert)
            back = certificate_from_dict(json.loads(json.dumps(data)))
            assert back == cert

    def test_malformed_document(self):
        with pytest.raises(CertificateError):
            certificate_from_dict({"kind": "hyperbolic"})
        with pytest.raises(CertificateError):
            certificate_from_dict(
                {"kind": "weird", "genus": 1, "n": 1, "curves": []}
            )
        with pytest.raises(CertificateError):
            certificate_from_dict(
                {"kind": "hyperbolic", "genus": 1, "n": 1, "curves": "oops"}
            )
        with pytest.raises(CertificateError):
            certificate_from_dict(
                {"kind": "hyperbolic", "genus": 1, "n": 1,
                 "curves": [{"name": "a1", "role": "A", "index": "bad"}]}
            )

    def test_generator_range_checked(self):
        with pytest.raises(CertificateError):
            certificate_from_dict(
                {
                    "kind": "hyperbolic",
                    "genus": 1,
                    "n": 2,
                    "curves": [
                        {"name": "a1", "role": "A", "index": 1, "pushoff_plus": "g5"}
                    ],
                }
            )


class TestQOfWord:
    def test_trivial_word_convention(self):
        info = q_of_word((), 5)
        assert info.k == 0 and info.q == 1  # q(6) = 1

    def test_exclusion(self):
        word = commutator_word((1, 2, 1))
        with_x = q_of_word(word, 2)
        without_x = q_of_word(word, 2, exclude=frozenset({1}))
        assert with_x.k == 2 and without_x.k == 1


def q_oracle(word, m, exclude):
    """(k, q, factor count) from the full decomposition, residual included."""
    comb = decompose(word, m, m + 1)
    gensets = [frozenset(entries) - exclude for entries, _ in comb.factors]
    gensets.append(generators_in(comb.residual) - exclude)
    _, k = partition_k([s for s in gensets if s])
    return k, q_param(m, k) if k >= 1 else q(m + 1), len(comb.factors)


def products_with_deeper_words(m):
    """Conjugated weight-(m+1) commutators, each maybe inverted, times words in F^(m+2)."""
    lead = st.tuples(
        st.lists(letters_strategy(4), min_size=m + 1, max_size=m + 1),
        words_strategy(max_gen=4, max_len=3),
        st.booleans(),
    )
    deeper = st.tuples(
        st.lists(letters_strategy(4), min_size=m + 2, max_size=m + 2),
        words_strategy(max_gen=4, max_len=3),
    )

    def build(parts):
        leads, deeps = parts
        words = []
        for entries, conj, inverse in leads:
            w = conjugate(commutator_word(entries), conj)
            words.append(invert(w) if inverse else w)
        words += [conjugate(commutator_word(entries), conj) for entries, conj in deeps]
        return concat(*words)

    return st.tuples(
        st.lists(lead, min_size=1, max_size=3), st.lists(deeper, max_size=2)
    ).map(build)


def dense_degree(word, depth):
    """lcs degree of ``word`` when it is at most ``depth``, from one dense expansion."""
    if depth < 1 or not word:
        return None
    low = magnus.expand(word, depth + 1).min_positive_degree()
    return low if low is not None and low <= depth else None


class TestMembershipPrimitive:
    """``certify._membership`` (staged expansion) against dense expansion."""

    @settings(max_examples=400, deadline=None)
    @given(
        words_strategy(max_len=6),
        words_strategy(max_len=6),
        st.frozensets(st.integers(1, 4), min_size=1),
        st.sampled_from(["raw", "member", "commutator"]),
        st.integers(0, 4),
    )
    def test_closure_against_dense(self, u, v, subset, shape, depth):
        def member(w):
            # w times the inverse of its image lies in the normal closure
            return concat(w, invert(kill_generators(w, subset)))

        mu, mv = member(u), member(v)
        word = {"raw": u, "member": mu, "commutator": concat(mu, mv, invert(mu), invert(mv))}[shape]
        at = certify._membership(word, depth, subset=subset)
        try:
            rewritten = rewrite_to_word(word, subset)
        except NotInNormalClosure:
            assert at.word is None and not at.passed
            return
        degree = dense_degree(rewritten, depth)
        assert at.word == rewritten
        assert (at.passed, at.degree) == (degree is None, degree)
        if at.passed:
            assert at.q() == q_of_word(rewritten, depth)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(words_strategy(), st.integers(1, 3).flatmap(products_with_deeper_words)),
        st.integers(1, 3),
        st.integers(0, 4),
    )
    def test_quotient_against_dense(self, word, index, depth):
        at = certify._membership(word, depth, index=index)
        image = reduce_word(letter for letter in word if abs(letter) > 2 * (index - 1))
        degree = dense_degree(image, depth)
        assert at.word == image
        assert (at.passed, at.degree) == (degree is None, degree)
        if at.passed:
            assert at.q() == q_of_word(image, depth, frozenset({2 * index - 1}))


class TestFastQPath:
    """``q_of_word`` skips the residual; the oracle always builds it."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 3).flatmap(
            lambda m: st.tuples(st.just(m), products_with_deeper_words(m))
        ),
        st.frozensets(st.integers(1, 4), max_size=3),
    )
    def test_matches_full_decomposition(self, case, exclude):
        m, word = case
        info = q_of_word(word, m, exclude)
        assert (info.k, info.q, info.factor_count) == q_oracle(word, m, exclude)

    def spy_residual(self, monkeypatch):
        calls = []
        residual_word = decomp.residual_word

        def residual(word, factors):
            calls.append(word)
            return residual_word(word, factors)

        monkeypatch.setattr(decomp, "residual_word", residual)
        return calls

    def test_two_blocks_build_the_residual(self, monkeypatch):
        calls = self.spy_residual(monkeypatch)
        word = concat(commutator_word((1, 2)), commutator_word((3, 4)))
        info = q_of_word(word, 1)
        assert calls == [word]
        assert (info.k, info.q, info.factor_count) == q_oracle(word, 1, frozenset())
        assert info.k == 2

    def test_uncovered_generator_joins_through_the_residual(self, monkeypatch):
        # the weight-3 part uses g3, which no weight-2 factor covers: its
        # residual joins g3 to the block {g1, g2}
        calls = self.spy_residual(monkeypatch)
        word = concat(commutator_word((1, 2)), commutator_word((3, 1, 1)))
        info = q_of_word(word, 1)
        assert calls == [word]
        assert info.k == 3 == q_oracle(word, 1, frozenset())[0]

    def test_one_covering_block_skips_the_residual(self, monkeypatch):
        calls = self.spy_residual(monkeypatch)
        word = concat(commutator_word((1, 2)), commutator_word((2, 1, 1)))
        assert q_of_word(word, 1).k == 2
        assert calls == []

    def test_shipped_elliptic_reuses_the_membership_expansion(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the shipped q-values need no residual")

        monkeypatch.setattr(decomp, "commutator_group_word", forbidden)
        monkeypatch.setattr(decomp, "residual_word", forbidden)
        stages = []
        check_stage = decomp._check_stage

        def counting_check(combo, component, d):
            stages.append(d)
            check_stage(combo, component, d)

        monkeypatch.setattr(decomp, "_check_stage", counting_check)
        expansions = []
        expand = magnus.expand

        def counting_expand(word, degree):
            expansions.append((len(word), degree))
            return expand(word, degree)

        for module in (magnus, decomp, certify):
            monkeypatch.setattr(module, "expand", counting_expand)
        cert = certificate_from_dict(json.loads((DATA / "elliptic_g1_n2.json").read_text()))
        report = certify_elliptic(cert)
        assert report.verdict == "valid"
        a_word = [degree for letters, degree in expansions if letters == 140]
        assert a_word.count(12) == 1 and 11 not in a_word
        # one stage per q-value, each checked at the Lie level
        assert stages == [12, 6]


def reference_mutant(cert, rng):
    """mutate_certificate as it was first written, field by field: the
    oracle that every seeded mutant must still match."""
    targets = checked_words(cert)
    name, field = rng.choice(targets)
    curves = []
    for curve in cert.curves:
        if curve.name != name:
            curves.append(curve)
            continue
        word = getattr(curve, field)
        pos = rng.randrange(len(word))
        alphabet = [g for g in range(1, 2 * cert.genus + 1)]
        choices = [s * g for g in alphabet for s in (1, -1) if s * g != word[pos]]
        letter = rng.choice(choices)
        mutated = tuple(word[:pos] + (letter,) + word[pos + 1:])
        fields = {
            "name": curve.name,
            "role": curve.role,
            "index": curve.index,
            "pushoff_plus": curve.pushoff_plus,
            "pushoff_minus": curve.pushoff_minus,
            "m": curve.m,
            "pair": curve.pair,
            "factors": curve.factors,
        }
        fields[field] = mutated
        if curve.factors is not None and curve.factors.chi == word:
            fields["factors"] = UnknottedFactors(
                x_exponent=curve.factors.x_exponent,
                chi=mutated,
                mu=curve.factors.mu,
                zeta=curve.factors.zeta,
                m_mu=curve.factors.m_mu,
                m_chi=curve.factors.m_chi,
                m_zeta=curve.factors.m_zeta,
            )
        curves.append(Curve(**fields))
    return SurfaceCertificate(
        kind=cert.kind,
        genus=cert.genus,
        n=cert.n,
        curves=tuple(curves),
        asserted_flags=cert.asserted_flags,
    )


SHIPPED_CERTIFICATES = sorted(
    path.stem for path in DATA.glob("*.json") if "kind" in json.loads(path.read_text())
)


class TestMutantBuilder:
    def test_corpus(self):
        assert len(SHIPPED_CERTIFICATES) == 6

    @pytest.mark.parametrize("stem", SHIPPED_CERTIFICATES)
    def test_matches_reference_over_seeds(self, stem):
        cert = certificate_from_dict(json.loads((DATA / f"{stem}.json").read_text()))
        for seed in range(100):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            mutant = mutate_certificate(cert, rng)
            assert mutant == reference_mutant(cert, reference_rng), seed
            # the same draws, in the same order
            assert rng.getstate() == reference_rng.getstate(), seed
            assert certificate_to_dict(mutant) != certificate_to_dict(cert), seed


class TestMutationSensitivity:
    def test_most_mutants_flip(self, rng):
        certs = [hyperbolic_example(2, 3), elliptic_example(), parabolic_example(),
                 unknotted_example()]
        from knotcert.certify import CERTIFIERS

        for cert in certs:
            assert CERTIFIERS[cert.kind](cert).verdict == "valid"
        flips = 0
        total = 40
        for i in range(total):
            cert = certs[i % len(certs)]
            mutant = mutate_certificate(cert, rng)
            try:
                flips += CERTIFIERS[mutant.kind](mutant).verdict != "valid"
            except (CertificateError, ValueError):
                flips += 1
        assert flips >= 0.9 * total


class TestConjugationInvariance:
    def test_unknotted_membership_survives_allowed_conjugation(self):
        # conjugating the chi factors by generators outside the closure
        # does not change any closure degree, so the verdict is stable
        base = unknotted_example()
        fa = base.curves[0].factors
        fb = base.curves[1].factors
        chi_a = conjugate(fa.chi, (2,))   # complement of the A-duals {1}
        chi_b = conjugate(fb.chi, (1,))   # complement of the B-duals {2}
        curves = (
            Curve(
                name="a1", role="A", index=1, pushoff_plus=chi_a,
                factors=UnknottedFactors(chi=chi_a, m_chi=fa.m_chi),
            ),
            Curve(
                name="b1", role="B", index=1, pushoff_minus=chi_b,
                factors=UnknottedFactors(chi=chi_b, m_chi=fb.m_chi),
            ),
        )
        cert = SurfaceCertificate(
            kind="unknotted", genus=1, n=2, curves=curves,
            asserted_flags=base.asserted_flags,
        )
        assert certify_unknotted(cert).verdict == "valid"


class TestEllipticSwapTranslation:
    def test_b_side_choice_relabels(self):
        # deep word on the B-side: the translation must pick the B-curve
        # and swap the duals within the pair
        from knotcert.synth import deep_closure_word, mid_closure_word

        curves = (
            Curve(name="a1", role="A", index=1,
                  pushoff_plus=mid_closure_word(1, 2), m=5),
            Curve(name="b1", role="B", index=1,
                  pushoff_minus=deep_closure_word(2, 1), m=11),
        )
        cert = SurfaceCertificate(
            kind="elliptic", genus=1, n=2, curves=curves,
            asserted_flags=("regular-spine", "geometrically-unrelated"),
        )
        report = certify_elliptic(cert)
        assert report.verdict == "valid"
        data = report.quantities["per_pair"]["a1"]
        assert data["q_A"] == 1 and data["q_B"] == 2
        result = translate_certificate(cert, 1)
        assert result.certificate.kind == "hyperbolic"
        names = [c.name for c in result.certificate.curves_of_role("A")]
        assert names == ["b1"]
        assert result.report.verdict == "valid"


class TestZeroHyperbolic:
    def test_every_word_is_zero_hyperbolic(self):
        # membership in F^(1) holds for any pushoff; q-values fall back to
        # q(1) = 0 and l(0, S) = -1
        cert = SurfaceCertificate(
            kind="hyperbolic", genus=1, n=0,
            curves=(Curve(name="a1", role="A", index=1, pushoff_plus=(1, 2)),),
            asserted_flags=("regular-spine",),
        )
        report = certify_hyperbolic(cert)
        assert report.verdict == "valid"
        assert report.quantities["l_n_S"] == -1


class TestGenusTwoElliptic:
    def test_two_pairs_verify(self):
        from knotcert.synth import deep_closure_word, mid_closure_word

        curves = (
            Curve(name="a1", role="A", index=1,
                  pushoff_plus=deep_closure_word(1, 2), m=11),
            Curve(name="b1", role="B", index=1,
                  pushoff_minus=mid_closure_word(2, 1), m=5),
            Curve(name="a2", role="A", index=2,
                  pushoff_plus=deep_closure_word(3, 4), m=11),
            Curve(name="b2", role="B", index=2,
                  pushoff_minus=mid_closure_word(4, 3), m=5),
        )
        cert = SurfaceCertificate(
            kind="elliptic", genus=2, n=2, curves=curves,
            asserted_flags=("regular-spine", "geometrically-unrelated"),
        )
        report = certify_elliptic(cert)
        assert report.verdict == "valid", report.conditions
        pairs = report.quantities["per_pair"]
        assert pairs["a1"]["q_A"] == 2 and pairs["a2"]["q_A"] == 2
        result = translate_certificate(cert, 1)
        assert result.report.verdict == "valid"
        assert result.certificate.genus == 2
